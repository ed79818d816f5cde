(* The static checker (steps 2–4 of Figure 8): builds the DSG, collects
   interprocedural traces from the analysis roots, applies the rule set
   for the selected persistency model, and reports deduplicated
   warnings.

   Traces are enumerated lazily per root; each path is stepped through
   the rule fold ([Rules.Fold]) from the prefix it shares with the
   previous path and discarded as soon as its warnings are out, so peak
   memory is O(live paths + one path), and independent roots are
   checked concurrently on the shared domain pool. *)

type result = {
  model : Model.t;
  warnings : Warning.t list;
  trace_count : int;
  event_count : int;
  peak_paths : int; (* max simultaneously-live paths across roots *)
  dsg : Dsa.Dsg.t;
}

let m_roots =
  Obs.Metrics.counter "checker.roots_checked"
    ~desc:"analysis roots run through the rule set"

let m_warnings =
  Obs.Metrics.counter "checker.warning_total"
    ~desc:"deduplicated warnings (labelled rule=R,model=M)"

let m_root_ns =
  Obs.Metrics.histogram "checker.root_latency_ns"
    ~desc:"per-root check latency (streaming engine), nanoseconds"

let m_peak =
  Obs.Metrics.gauge "trace.peak_live_paths"
    ~desc:"high-water mark of simultaneously-live paths across roots"

let note_warnings warnings =
  if Obs.enabled () then
    List.iter
      (fun (w : Warning.t) ->
        Obs.Metrics.add_labelled m_warnings
          (Fmt.str "rule=%s,model=%s"
             (Warning.rule_name w.Warning.rule)
             (Model.to_string w.Warning.model))
          1)
      warnings

let m_stepped =
  Obs.Metrics.counter "rules.events_stepped"
    ~desc:"events stepped through the rule fold"

let m_reused =
  Obs.Metrics.counter "rules.events_reused"
    ~desc:"events whose rule-fold state was resumed from the previous path"

(* One root's paths through the rule fold. The previous path is kept,
   with the fold states after every [stride]-th of its events: a path
   resumes from the last kept state within the prefix it shares with
   the previous one, re-steps at most [stride - 1] shared events, and
   steps the rest — consecutive DFS paths share most of their events.
   A state per event would keep every path's rule states alive for a
   gain of a few events per path. Dedup keeps the first occurrence,
   path by path in [Incremental.finish]'s order: the same result
   [Warning.dedup] computes on the concatenated per-path lists,
   formatting only the warnings it keeps. *)
let stride = 8

let check_paths ctx (paths : Trace.t Seq.t) =
  let seen = Hashtbl.create 16 in
  let rev_warnings = ref [] in
  (* the previous path, and its kept states, latest first: one per
     multiple of [stride] up to its length *)
  let prev = ref [] and prev_len = ref 0 and kept = ref [ Rules.Fold.start ] in
  Seq.iter
    (fun path ->
      (* the shared prefix's length, and the path from its last kept
         state on; expansion allocates a fresh Ret_mark per spliced
         path, so equal events need not be physically equal *)
      let rec shared i from path prev =
        match (path, prev) with
        | e :: rest, p :: prev when e == p || e = p ->
          let i = i + 1 in
          shared i (if i mod stride = 0 then rest else from) rest prev
        | _ -> (i, from)
      in
      let k, from = shared 0 path path !prev in
      let resumed = k / stride * stride in
      let rec step i st kept = function
        | [] -> (i, st, kept)
        | e :: rest ->
          let st = Rules.Fold.step ctx st e in
          let i = i + 1 in
          step i st (if i mod stride = 0 then st :: kept else kept) rest
      in
      let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      let valid = drop ((!prev_len - resumed) / stride) !kept in
      let n, st, kept' = step resumed (List.hd valid) valid from in
      prev := path;
      prev_len := n;
      kept := kept';
      Obs.Metrics.add m_reused resumed;
      Obs.Metrics.add m_stepped (n - resumed);
      let fresh =
        List.filter
          (fun f ->
            let key = Rules.Fold.key f in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          (Rules.Fold.close st)
      in
      rev_warnings :=
        List.rev_append (Rules.Fold.warnings ctx path fresh) !rev_warnings)
    paths;
  List.rev !rev_warnings

let check_root_streaming ctx (src : Trace.source) =
  Obs.Span.with_ ~name:"check-root" (fun () ->
      Obs.Metrics.incr m_roots;
      let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
      let ws = check_paths ctx src.Trace.traces in
      if Obs.enabled () then
        Obs.Metrics.observe m_root_ns
          (Int64.to_int (Int64.sub (Obs.now_ns ()) t0));
      ws)

(* Per-root streaming results: the unit of incremental reuse. A root's
   warnings and stats depend only on its own call-graph closure, so a
   resident analyzer can replay cached [per_root] values for untouched
   roots and re-run only the stale ones, then [merge_roots] — the merge
   reproduces exactly what a cold [check] computes, provided the list
   is in the cold run's root order (cross-root dedup keeps the first
   occurrence, so order is semantically visible). *)
type per_root = {
  pr_root : string;
  pr_warnings : Warning.t list; (* per-root deduped, pre-sort *)
  pr_paths : int;
  pr_events : int;
  pr_peak : int;
}

let check_roots ?(config = Config.default) ?dsg ?roots ~model
    (prog : Nvmir.Prog.t) : per_root list * Dsa.Dsg.t =
  let dsg =
    match dsg with Some d -> d | None -> Config.build_dsg config prog
  in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  let sources = Trace.stream ~config ?roots dsg prog in
  (* freeze the union-find: forcing the sources from worker domains
     must not race on path compression *)
  Dsa.Arena.compress (Dsa.Dsg.arena dsg);
  let per_root =
    Pool.map (Pool.default ())
      (fun (src : Trace.source) ->
        let ws = check_root_streaming ctx src in
        (* the source is fully forced now, so its stats are final *)
        {
          pr_root = src.Trace.root;
          pr_warnings = ws;
          pr_paths = src.Trace.s_stats.Trace.paths;
          pr_events = src.Trace.s_stats.Trace.events;
          pr_peak = src.Trace.s_stats.Trace.peak_live;
        })
      sources
  in
  (per_root, dsg)

let merge_roots ~model ~dsg (per_root : per_root list) : result =
  let warnings =
    List.concat_map (fun pr -> pr.pr_warnings) per_root
    |> Warning.dedup |> Warning.sort
  in
  note_warnings warnings;
  let trace_count, event_count, peak_paths =
    List.fold_left
      (fun (t, e, p) pr -> (t + pr.pr_paths, e + pr.pr_events, max p pr.pr_peak))
      (0, 0, 0) per_root
  in
  if Obs.enabled () then Obs.Metrics.set_max m_peak peak_paths;
  { model; warnings; trace_count; event_count; peak_paths; dsg }

let check ?config ?roots ~model (prog : Nvmir.Prog.t) : result =
  let per_root, dsg = check_roots ?config ?roots ~model prog in
  merge_roots ~model ~dsg per_root

(* Mixed-model checking — lifting the limitation §4.5 states ("DeepMC
   currently does not support the scenario that part of a program uses
   one model and other parts of the program use another"). Each analysis
   root carries its own intended model: the traces rooted there are
   checked under that model's rules, so a codebase whose storage engine
   uses epoch persistency while its allocator uses strict persistency is
   analyzed in one run. *)
type mixed_result = {
  per_root : (string * Model.t * Warning.t list) list;
  mixed_warnings : Warning.t list; (* union, deduplicated *)
  mixed_dsg : Dsa.Dsg.t;
}

let check_mixed ?(config = Config.default) ~model_of ~roots
    (prog : Nvmir.Prog.t) : mixed_result =
  let dsg = Config.build_dsg config prog in
  (* one check per model over the shared DSG, results reassembled in
     the caller's root order *)
  let models = List.sort_uniq compare (List.map model_of roots) in
  let checked =
    List.concat_map
      (fun model ->
        let group =
          List.filter (fun r -> Model.equal (model_of r) model) roots
        in
        fst (check_roots ~config ~dsg ~roots:group ~model prog)
        |> List.map (fun pr -> (pr.pr_root, pr.pr_warnings)))
      models
  in
  let per_root =
    List.map
      (fun root ->
        (root, model_of root, Warning.sort (List.assoc root checked)))
      roots
  in
  let mixed_warnings =
    Warning.sort
      (Warning.dedup (List.concat_map (fun (_, _, ws) -> ws) per_root))
  in
  { per_root; mixed_warnings; mixed_dsg = dsg }

let violations r =
  List.filter (fun w -> Warning.category w = Warning.Model_violation) r.warnings

let performance_bugs r =
  List.filter (fun w -> Warning.category w = Warning.Performance) r.warnings

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>model: %a@ traces analyzed: %d (%d events)@ warnings: %d (%d model \
     violations, %d performance)@ %a@]"
    Model.pp r.model r.trace_count r.event_count
    (List.length r.warnings)
    (List.length (violations r))
    (List.length (performance_bugs r))
    Fmt.(list ~sep:(any "@ ") Warning.pp)
    r.warnings
