(* The resident analyzer's two-level cross-run cache.

   Level A — request cache: the raw program text (plus every analysis
   parameter) is hashed; a byte-identical resubmission replays the
   stored summary without parsing anything. This is where a
   re-check-after-small-edit workload wins its order of magnitude —
   in a corpus of programs with one edit per round, every untouched
   program is a level-A hit.

   Level B — per-root incremental cache: when the text *did* change,
   the program is re-parsed and its DSG rebuilt (both linear), then
   [Analysis.Fingerprint] keys each analysis root by the content
   fingerprints of its call-graph closure. Roots whose closure key is
   unchanged replay their cached [Checker.per_root] result — warning
   text included, because fingerprints digest the raw DSG node ids
   warnings embed; only stale roots (the edited functions'
   memo-dependent callers) re-enumerate traces, fanned out on the
   shared pool. The merge preserves the cold run's root order, so the
   final warning list is byte-identical to a cold [Checker.check] of
   the same text (a QCheck differential pins this).

   Cache slots are keyed by program [name] (the watch loop uses the
   file path; socket clients pass one), so resubmissions of the same
   logical program hit the same slot; a different name is simply a
   different slot with its own history. *)

let m_requests =
  Obs.Metrics.counter "serve.requests" ~desc:"requests handled by the resident analyzer"

let m_hits =
  Obs.Metrics.counter "serve.cache_hits"
    ~desc:"request-level cache hits (byte-identical resubmission, no re-analysis)"

let m_misses =
  Obs.Metrics.counter "serve.cache_misses"
    ~desc:"request-level cache misses (program text or parameters changed)"

let m_roots_reused =
  Obs.Metrics.counter "serve.roots_reused"
    ~desc:"per-root results replayed from the incremental cache on changed programs"

let m_invalidated =
  Obs.Metrics.gauge "serve.functions_invalidated"
    ~desc:"high-water mark of functions invalidated by a single edit"

let m_latency =
  Obs.Metrics.histogram "serve.request_latency_ns"
    ~desc:"wall-clock latency per served check request, nanoseconds"

type params = { model : Analysis.Model.t; config : Analysis.Config.t }

let default_params ?(config = Analysis.Config.default) model = { model; config }

(* Canonical parameter signature folded into every cache key: anything
   that can change the checker's output must appear here, and
   [Config.signature] covers every field of the record by construction. *)
let params_sig p =
  Analysis.Model.to_string p.model ^ "|" ^ Analysis.Config.signature p.config

(* What a response needs from a check: [Checker.result] minus the DSG
   (which is rebuilt per program build and never replayed). *)
type summary = {
  sm_model : Analysis.Model.t;
  sm_warnings : Analysis.Warning.t list;
  sm_trace_count : int;
  sm_event_count : int;
  sm_peak_paths : int;
}

let summary_of_result (r : Analysis.Checker.result) =
  {
    sm_model = r.Analysis.Checker.model;
    sm_warnings = r.Analysis.Checker.warnings;
    sm_trace_count = r.Analysis.Checker.trace_count;
    sm_event_count = r.Analysis.Checker.event_count;
    sm_peak_paths = r.Analysis.Checker.peak_paths;
  }

type cache_level =
  | Hit  (** level A: byte-identical resubmission *)
  | Partial  (** level B: some roots replayed, stale ones re-run *)
  | Miss  (** nothing reusable (first sight, or everything stale) *)

let cache_level_name = function
  | Hit -> "hit"
  | Partial -> "partial"
  | Miss -> "miss"

type outcome = {
  summary : summary;
  level : cache_level;
  invalidated : string list;  (** functions whose fingerprint changed *)
  stale : string list;  (** roots re-checked this request *)
  reused : string list;  (** roots replayed from the per-root cache *)
}

(* Per-(name, params) incremental slot. [entries] remembers, per root,
   the closure key its cached result was computed under. *)
type slot = {
  mutable s_table : Analysis.Fingerprint.table;
  s_entries :
    (string, Nvmir.Chash.t * Analysis.Checker.per_root) Hashtbl.t;
}

type t = {
  requests : (string, summary) Hashtbl.t;
      (* level A: text+params digest -> stored summary *)
  slots : (string, slot) Hashtbl.t; (* level B: name+params -> slot *)
  max_entries : int; (* bound on each level; reset wholesale past it *)
}

let create ?(max_request_entries = 4096) () =
  {
    requests = Hashtbl.create 64;
    slots = Hashtbl.create 16;
    max_entries = max_request_entries;
  }

let request_key ~psig text =
  Nvmir.Chash.to_hex
    (Nvmir.Chash.add_string (Nvmir.Chash.of_string psig) text)

(* Parse and validate a request's program, with the error text every
   command reports. *)
let parse ~file text =
  match Nvmir.Parser.parse ~file text with
  | exception Nvmir.Parser.Parse_error (msg, line) ->
    Error (Fmt.str "parse error at line %d: %s" line msg)
  | prog -> (
    match Nvmir.Prog.validate prog with
    | [] -> Ok prog
    | errs ->
      Error
        (Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Nvmir.Prog.pp_error) errs))

(* Check [text] under [params], reusing everything the caches allow.
   Returns [Error] on parse/validation failure (cached nothing). *)
let check t ~name ~(params : params) ~text : (outcome, string) result =
  Obs.Metrics.incr m_requests;
  let psig = params_sig params in
  let rkey = request_key ~psig text in
  match Hashtbl.find_opt t.requests rkey with
  | Some summary ->
    Obs.Metrics.incr m_hits;
    Ok { summary; level = Hit; invalidated = []; stale = []; reused = [] }
  | None -> (
    Obs.Metrics.incr m_misses;
    match parse ~file:name text with
    | Error _ as e -> e
    | Ok prog ->
      let dsg = Analysis.Config.build_dsg params.config prog in
      let table = Analysis.Fingerprint.build dsg prog in
      let roots = Analysis.Fingerprint.roots table in
      let skey = name ^ "\x00" ^ psig in
      let slot, invalidated =
        match Hashtbl.find_opt t.slots skey with
        | Some slot ->
          let changed =
            Analysis.Fingerprint.changed_functions ~old:slot.s_table table
          in
          slot.s_table <- table;
          (slot, changed)
        | None ->
          let slot =
            { s_table = table; s_entries = Hashtbl.create 8 }
          in
          if Hashtbl.length t.slots >= t.max_entries then
            Hashtbl.reset t.slots;
          Hashtbl.replace t.slots skey slot;
          (slot, List.sort String.compare (Nvmir.Prog.func_names prog))
      in
      (* A root is stale when its cached entry is missing or was
         computed under a different closure key. *)
      let stale, reused =
        List.partition
          (fun r ->
            match
              (Hashtbl.find_opt slot.s_entries r,
               Analysis.Fingerprint.root_key table r)
            with
            | Some (k, _), Some k' -> not (Nvmir.Chash.equal k k')
            | _ -> true)
          roots
      in
      Obs.Metrics.set_max m_invalidated (List.length invalidated);
      Obs.Metrics.add m_roots_reused (List.length reused);
      let fresh, _ =
        if stale = [] then ([], dsg)
        else
          Analysis.Checker.check_roots ~config:params.config ~dsg
            ~roots:stale ~model:params.model prog
      in
      List.iter
        (fun (pr : Analysis.Checker.per_root) ->
          match
            Analysis.Fingerprint.root_key table
              pr.Analysis.Checker.pr_root
          with
          | Some k ->
            Hashtbl.replace slot.s_entries pr.Analysis.Checker.pr_root
              (k, pr)
          | None -> ())
        fresh;
      (* Merge in the cold run's root order: cross-root dedup keeps
         first occurrences, so order is semantically visible. *)
      let per_root =
        List.filter_map
          (fun r -> Option.map snd (Hashtbl.find_opt slot.s_entries r))
          roots
      in
      let result =
        Analysis.Checker.merge_roots ~model:params.model ~dsg per_root
      in
      let summary = summary_of_result result in
      let level =
        if reused = [] then Miss else if stale = [] then Hit else Partial
      in
      if Hashtbl.length t.requests >= t.max_entries then
        Hashtbl.reset t.requests;
      Hashtbl.replace t.requests rkey summary;
      Ok
        {
          summary;
          level;
          invalidated;
          stale;
          reused;
        })

(* Raw request memo for the non-check commands (crash-explore,
   inject): byte-identical resubmissions replay the stored response
   payload; there is no per-root structure to reuse below that. *)
type 'a memo = (string, 'a) Hashtbl.t

let memo_create () : 'a memo = Hashtbl.create 16

let memo_find (m : 'a memo) ~key ~compute : 'a * cache_level =
  Obs.Metrics.incr m_requests;
  match Hashtbl.find_opt m key with
  | Some v ->
    Obs.Metrics.incr m_hits;
    (v, Hit)
  | None ->
    Obs.Metrics.incr m_misses;
    let v = compute () in
    Hashtbl.replace m key v;
    (v, Miss)

let observe_latency ns = Obs.Metrics.observe m_latency ns
