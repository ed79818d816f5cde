(* The resident analyzer daemon: `deepmc serve`.

   One process keeps the two-level [Cache] warm and answers
   line-delimited JSON requests (check / crash-explore / inject /
   stats / shutdown) over a Unix-domain socket or stdio, or re-checks
   a watched directory of .nvmir files in a polling loop. The loop is
   single-threaded on purpose: parallelism lives *inside* a request
   (per-root fan-out on the shared pool), so responses arrive in
   request order and the daemon needs no cross-request locking.
   Between requests the pool is quiesced — every worker parked on its
   condition variable — so an idle daemon consumes ~0% CPU. *)

type t = {
  cache : Cache.t;
  crash_memo : Protocol.json Cache.memo;
  inject_memo : Protocol.json Cache.memo;
  mutable served : int;
}

let create () =
  {
    cache = Cache.create ();
    crash_memo = Cache.memo_create ();
    inject_memo = Cache.memo_create ();
    served = 0;
  }

let served t = t.served

(* ------------------------------------------------------------------ *)
(* Request handlers *)

let parse_model j =
  match Protocol.string_member "model" j with
  | None -> Ok Analysis.Model.Strict
  | Some s -> (
    match Analysis.Model.of_string s with
    | Some m -> Ok m
    | None -> Error (Fmt.str "unknown model %S" s))

let parse_pmem_roots j =
  match Protocol.member "pmem_roots" j with
  | None -> Ok []
  | Some (Protocol.List items) ->
    List.fold_right
      (fun item acc ->
        Result.bind acc (fun acc ->
            match item with
            | Protocol.String s -> (
              match String.index_opt s ':' with
              | Some i ->
                Ok
                  ((String.sub s 0 i,
                    String.sub s (i + 1) (String.length s - i - 1))
                  :: acc)
              | None -> Error (Fmt.str "pmem_roots entry %S: expected FUNC:VAR" s))
            | _ -> Error "pmem_roots entries must be strings"))
      items (Ok [])
  | Some _ -> Error "pmem_roots must be a list"

let required_program j =
  match Protocol.string_member "program" j with
  | Some text -> Ok text
  | None -> Error "missing \"program\" field"

let json_of_strings names =
  Protocol.List (List.map (fun s -> Protocol.String s) names)

let check_response (o : Cache.outcome) =
  [
    ("cache", Protocol.String (Cache.cache_level_name o.Cache.level));
    ( "model",
      Protocol.String (Analysis.Model.to_string o.Cache.summary.Cache.sm_model)
    );
    ( "warnings",
      Protocol.List
        (List.map Deepmc.Json_report.of_warning
           o.Cache.summary.Cache.sm_warnings) );
    ("trace_count", Protocol.Int o.Cache.summary.Cache.sm_trace_count);
    ("event_count", Protocol.Int o.Cache.summary.Cache.sm_event_count);
    ("peak_paths", Protocol.Int o.Cache.summary.Cache.sm_peak_paths);
    ("functions_invalidated", Protocol.Int (List.length o.Cache.invalidated));
    ("invalidated", json_of_strings o.Cache.invalidated);
    ("roots_rechecked", json_of_strings o.Cache.stale);
    ("roots_reused", json_of_strings o.Cache.reused);
  ]

let handle_check t ?id req =
  let ( let* ) = Result.bind in
  let r =
    let* text = required_program req in
    let* model = parse_model req in
    let* persistent_roots = parse_pmem_roots req in
    let name =
      Option.value ~default:"<request>" (Protocol.string_member "name" req)
    in
    let field_sensitive =
      Option.value ~default:true (Protocol.bool_member "field_sensitive" req)
    in
    let config =
      { Analysis.Config.default with field_sensitive; persistent_roots }
    in
    let params = Cache.default_params ~config model in
    Cache.check t.cache ~name ~params ~text
  in
  match r with
  | Error msg -> Protocol.error_response ?id msg
  | Ok outcome -> Protocol.ok_response ?id (check_response outcome)

let handle_crash_explore t ?id req =
  let ( let* ) = Result.bind in
  let r =
    let* text = required_program req in
    let entry =
      Option.value ~default:"main" (Protocol.string_member "entry" req)
    in
    let bound =
      Option.value ~default:Runtime.Crash_space.default_bound
        (Protocol.int_member "bound" req)
    in
    let seed = Option.value ~default:1 (Protocol.int_member "seed" req) in
    let psig = Fmt.str "crash|%s|%d|%d" entry bound seed in
    let key = Cache.request_key ~psig text in
    match Nvmir.Parser.parse ~file:"<request>" text with
    | exception Nvmir.Parser.Parse_error (msg, line) ->
      Error (Fmt.str "parse error at line %d: %s" line msg)
    | prog -> (
      match Nvmir.Prog.validate prog with
      | _ :: _ as errs ->
        Error
          (Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Nvmir.Prog.pp_error) errs)
      | [] ->
        if Nvmir.Prog.find_func prog entry = None then
          Error (Fmt.str "entry %s not defined" entry)
        else begin
          let payload, level =
            Cache.memo_find t.crash_memo ~key ~compute:(fun () ->
                let r =
                  Deepmc.Crash_sweep.explore_program ~bound ~seed ~entry prog
                in
                Deepmc.Json_report.of_crash_space r)
          in
          Ok
            [
              ("cache", Protocol.String (Cache.cache_level_name level));
              ("crash_space", payload);
            ]
        end)
  in
  match r with
  | Error msg -> Protocol.error_response ?id msg
  | Ok fields -> Protocol.ok_response ?id fields

let handle_inject t ?id req =
  let ( let* ) = Result.bind in
  let r =
    let* text = required_program req in
    let* model = parse_model req in
    let base =
      Option.value ~default:"<request>" (Protocol.string_member "name" req)
    in
    let* operators =
      match Protocol.member "operators" req with
      | None -> Ok Inject.Mutation.all_operators
      | Some (Protocol.List items) ->
        List.fold_right
          (fun item acc ->
            Result.bind acc (fun acc ->
                match item with
                | Protocol.String s -> (
                  match Inject.Mutation.operator_of_string s with
                  | Some op -> Ok (op :: acc)
                  | None -> Error (Fmt.str "unknown operator %S" s))
                | _ -> Error "operators entries must be strings"))
          items (Ok [])
      | Some _ -> Error "operators must be a list"
    in
    let psig =
      Fmt.str "inject|%s|%s|%a" base
        (Analysis.Model.to_string model)
        Fmt.(list ~sep:(any ",") string)
        (List.map Inject.Mutation.operator_name operators)
    in
    let key = Cache.request_key ~psig text in
    match Nvmir.Parser.parse ~file:base text with
    | exception Nvmir.Parser.Parse_error (msg, line) ->
      Error (Fmt.str "parse error at line %d: %s" line msg)
    | prog -> (
      match Nvmir.Prog.validate prog with
      | _ :: _ as errs ->
        Error
          (Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Nvmir.Prog.pp_error) errs)
      | [] ->
        let payload, level =
          Cache.memo_find t.inject_memo ~key ~compute:(fun () ->
              let roots = Analysis.Trace.default_roots prog in
              let mutants =
                Inject.Mutation.mutate ~operators ~base ~model ~roots prog
              in
              Protocol.List
                (List.map
                   (fun (m : Inject.Mutation.mutant) ->
                     Protocol.String m.Inject.Mutation.id)
                   mutants))
        in
        let count =
          match payload with Protocol.List l -> List.length l | _ -> 0
        in
        Ok
          [
            ("cache", Protocol.String (Cache.cache_level_name level));
            ("mutants", payload);
            ("mutant_count", Protocol.Int count);
          ])
  in
  match r with
  | Error msg -> Protocol.error_response ?id msg
  | Ok fields -> Protocol.ok_response ?id fields

let handle_stats t ?id () =
  let ps = Pool.stats (Pool.default ()) in
  let parks =
    List.fold_left
      (fun acc (w : Pool.worker_stat) -> acc + w.Pool.parks)
      0
      (Pool.worker_stats (Pool.default ()))
  in
  Protocol.ok_response ?id
    [
      ("served", Protocol.Int t.served);
      ( "pool",
        Protocol.Obj
          [
            ("size", Protocol.Int ps.Pool.size);
            ("alive", Protocol.Int ps.Pool.alive);
            ("jobs", Protocol.Int ps.Pool.jobs);
            ("chunks", Protocol.Int ps.Pool.chunks);
            ("parks", Protocol.Int parks);
          ] );
      ( "metrics",
        Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ()) );
    ]

(* One request in, one response out. [`Quit] carries the final
   response; the transport sends it, then stops. Handler exceptions
   become error responses: a bad request must never kill the
   daemon. *)
(* Every response carries a trace id linking it to the daemon's Obs
   span for the request: the request sequence number plus a digest of
   the request itself. Deterministic — replaying the same conversation
   yields the same ids, so cram tests can pin them — while warm and
   cold answers to one request differ only in the sequence half. *)
let trace_id t req =
  let h =
    Nvmir.Chash.add_string Nvmir.Chash.empty (Protocol.to_line req)
  in
  Fmt.str "%06d-%s" t.served (String.sub (Nvmir.Chash.to_hex h) 0 8)

let stamp_trace tid = function
  | Protocol.Obj fields -> Protocol.Obj (fields @ [ ("trace_id", Protocol.String tid) ])
  | j -> j

let handle t (req : Protocol.json) :
    [ `Reply of Protocol.json | `Quit of Protocol.json ] =
  let id = Protocol.int_member "id" req in
  t.served <- t.served + 1;
  let tid = trace_id t req in
  let t0 = Obs.now_ns () in
  let reply =
    Obs.Span.with_ ~name:"serve-request" ~args:[ ("trace_id", tid) ]
      (fun () ->
        match Protocol.string_member "cmd" req with
        | Some "check" -> `Reply (handle_check t ?id req)
        | Some "crash-explore" -> `Reply (handle_crash_explore t ?id req)
        | Some "inject" -> `Reply (handle_inject t ?id req)
        | Some "stats" -> `Reply (handle_stats t ?id ())
        | Some "shutdown" ->
          `Quit (Protocol.ok_response ?id [ ("bye", Protocol.Bool true) ])
        | Some other ->
          `Reply
            (Protocol.error_response ?id (Fmt.str "unknown cmd %S" other))
        | None -> `Reply (Protocol.error_response ?id "missing \"cmd\" field"))
  in
  Cache.observe_latency (Int64.to_int (Int64.sub (Obs.now_ns ()) t0));
  match reply with
  | `Reply j -> `Reply (stamp_trace tid j)
  | `Quit j -> `Quit (stamp_trace tid j)

let handle_exn t req =
  try handle t req
  with e ->
    `Reply
      (Protocol.error_response
         (Fmt.str "internal error: %s" (Printexc.to_string e)))

let handle_line t line : [ `Reply of string | `Quit of string ] =
  match Protocol.parse line with
  | Error msg -> `Reply (Protocol.to_line (Protocol.error_response msg))
  | Ok req -> (
    match handle_exn t req with
    | `Reply j -> `Reply (Protocol.to_line j)
    | `Quit j -> `Quit (Protocol.to_line j))

(* ------------------------------------------------------------------ *)
(* Transports *)

let over_budget ~max_requests t =
  match max_requests with Some n -> t.served >= n | None -> false

(* stdio transport: deterministic, single client — what the cram test
   drives. *)
let serve_stdio ?max_requests t =
  let quit = ref false in
  (try
     while (not !quit) && not (over_budget ~max_requests t) do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         (match handle_line t line with
         | `Reply s -> print_endline s
         | `Quit s ->
           print_endline s;
           quit := true);
         flush stdout;
         Pool.quiesce (Pool.default ())
       end
     done
   with End_of_file -> ());
  flush stdout

(* Unix-domain socket transport. Connections are served one at a time
   (requests batch internally through the pool); each connection may
   pipeline any number of line-delimited requests. *)
let serve_socket ?max_requests t ~path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let quit = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      while (not !quit) && not (over_budget ~max_requests t) do
        Pool.quiesce (Pool.default ());
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        (try
           while (not !quit) && not (over_budget ~max_requests t) do
             let line = input_line ic in
             if String.trim line <> "" then begin
               (match handle_line t line with
               | `Reply s -> output_string oc (s ^ "\n")
               | `Quit s ->
                 output_string oc (s ^ "\n");
                 quit := true);
               flush oc
             end
           done
         with End_of_file | Sys_error _ -> ());
        try Unix.close conn with Unix.Unix_error _ -> ()
      done)

(* ------------------------------------------------------------------ *)
(* Watch loop: poll a directory of .nvmir files, re-check what changed *)

type watch_state = {
  w_dir : string;
  w_params : Cache.params;
  mutable w_seen : (string * string) list; (* path -> last digest *)
}

let watch_create ~dir ~params = { w_dir = dir; w_params = params; w_seen = [] }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One pass: returns (path, outcome-or-error) for every file whose
   content changed since the previous pass, in sorted path order. *)
let watch_scan t (w : watch_state) :
    (string * (Cache.outcome, string) result) list =
  let files =
    Sys.readdir w.w_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nvmir")
    |> List.sort String.compare
    |> List.map (Filename.concat w.w_dir)
  in
  List.filter_map
    (fun path ->
      match read_file path with
      | exception Sys_error _ -> None (* deleted between readdir and read *)
      | text ->
        let digest =
          Cache.request_key ~psig:(Cache.params_sig w.w_params) text
        in
        if List.assoc_opt path w.w_seen = Some digest then None
        else begin
          w.w_seen <- (path, digest) :: List.remove_assoc path w.w_seen;
          t.served <- t.served + 1;
          Some (path, Cache.check t.cache ~name:path ~params:w.w_params ~text)
        end)
    files

let pp_watch_result ppf (path, r) =
  match r with
  | Error msg -> Fmt.pf ppf "%s: error: %s" (Filename.basename path) msg
  | Ok (o : Cache.outcome) ->
    Fmt.pf ppf "%s: %d warning(s) [%s, %d function(s) invalidated, %d/%d root(s) re-checked]"
      (Filename.basename path)
      (List.length o.Cache.summary.Cache.sm_warnings)
      (Cache.cache_level_name o.Cache.level)
      (List.length o.Cache.invalidated)
      (List.length o.Cache.stale)
      (List.length o.Cache.stale + List.length o.Cache.reused)

let serve_watch ?max_requests ?(interval_ms = 200) ?(once = false) t ~dir
    ~params =
  let w = watch_create ~dir ~params in
  let scan () =
    List.iter (fun r -> Fmt.pr "%a@." pp_watch_result r) (watch_scan t w)
  in
  scan ();
  if not once then
    while not (over_budget ~max_requests t) do
      Pool.quiesce (Pool.default ());
      Unix.sleepf (float_of_int interval_ms /. 1000.);
      scan ()
    done
