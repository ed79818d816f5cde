(* The DeepMC toolkit driver: the end-to-end pipeline of Figure 8.

   Given an IR program and the persistency-model flag (-strict, -epoch
   or -strand), the driver
     1. builds CFGs and the call graph,
     2. collects interprocedural traces,
     3. builds the DSG,
     4. applies the static checking rules,
     5. (optionally) instruments and executes the program once with the
        runtime library attached, recording the run for the crash tiers,
     6. performs the online checks,
   and merges the static and dynamic warnings into one report. *)

let src = Logs.Src.create "deepmc" ~doc:"DeepMC pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  model : Analysis.Model.t;
  config : Analysis.Config.t;
  run_dynamic : bool;
}

let make ?(config = Analysis.Config.default) ?(run_dynamic = true) model =
  { model; config; run_dynamic }

type dynamic_outcome =
  | Dynamic_ok of Runtime.Dynamic.summary
  | Dynamic_skipped of string

type report = {
  model : Analysis.Model.t;
  static : Analysis.Checker.result;
  dynamic : dynamic_outcome;
  dynamic_warnings : Analysis.Warning.t list;
  warnings : Analysis.Warning.t list; (* merged, deduplicated *)
  crash_space : Runtime.Crash_space.report option;
  crash_skipped : string option;
  recovery : Recover.report option;
  recovery_skipped : string option;
  elapsed_static : float;
  elapsed_dynamic : float;
}

(* A client's failure, when several clients run: [run_entry] reports it
   under the client's number. *)
exception Client_failed of int * exn

(* The one handler for a forward run that fails. *)
let rec run_entry f =
  try Ok (f ()) with
  | Runtime.Interp.Runtime_error (m, loc) ->
    Error (Fmt.str "runtime error at %a: %s" Nvmir.Loc.pp loc m)
  | Runtime.Interp.Out_of_fuel -> Error "execution exceeded fuel budget"
  | Client_failed (c, e) ->
    Result.map_error (Fmt.str "client %d: %s" c) (run_entry (fun () -> raise e))

(* The forward execution, once per analysis: the clients run in client
   order on one heap under one checker, client [c] as its thread [c],
   each with its own interpreter — the fuzzer's schedule with no
   preemption. When a crash or recovery tier is on ([recorded]) that
   run is the recording. Returns the dynamic outcome, its warnings
   (those stored before a failed run stopped included) and the
   recording or the failure. *)
let execute (t : t) ~entry ?(args = []) ~clients ~recorded prog =
  let checker = Runtime.Dynamic.create ~model:t.model () in
  let run pmem =
    if t.run_dynamic then Runtime.Dynamic.attach checker pmem;
    let client = Runtime.Interp.clients ~pmem ~entry ~args prog in
    for c = 0 to clients - 1 do
      Runtime.Dynamic.set_thread checker c;
      let entry, args = client c in
      let interp = Runtime.Interp.create ~pmem prog in
      try ignore (Runtime.Interp.run_values ~entry ~args interp)
      with e when clients > 1 -> raise (Client_failed (c, e))
    done
  in
  let recording, run =
    if recorded then
      let r = run_entry (fun () -> Runtime.Crash_space.record run) in
      (Some r, Result.map ignore r)
    else (None, run_entry (fun () -> run (Runtime.Pmem.create ())))
  in
  let dynamic =
    match run with
    | _ when not t.run_dynamic -> Dynamic_skipped "dynamic analysis disabled"
    | Ok () -> Dynamic_ok (Runtime.Dynamic.summary checker)
    | Error reason -> Dynamic_skipped reason
  in
  (dynamic, Runtime.Dynamic.warnings checker, recording)

(* Analyze a program. [entry]/[args] drive the optional forward run. *)
let analyze (t : t) ?roots ?entry ?args ?(clients = 1)
    ?(explore_crash_images = false)
    ?(crash_bound = Runtime.Crash_space.default_bound) ?(seed = 1)
    ?(verify_recovery = false) ?(recovery_entry = "recover") prog : report =
  Log.info (fun m ->
      m "analyzing %d function(s) against the %a model (%a)"
        (List.length (Nvmir.Prog.funcs prog))
        Analysis.Model.pp t.model Analysis.Config.pp t.config);
  let t0 = Clock.now () in
  let static =
    Obs.Span.with_ ~name:"static-check" (fun () ->
        Analysis.Checker.check ~config:t.config ?roots ~model:t.model prog)
  in
  let t1 = Clock.now () in
  Log.info (fun m ->
      m "static: %d trace(s), %d event(s), %d warning(s) in %.1f ms"
        static.Analysis.Checker.trace_count static.Analysis.Checker.event_count
        (List.length static.Analysis.Checker.warnings)
        (Clock.span_s t0 t1 *. 1000.));
  let defined f = Nvmir.Prog.find_func prog f <> None in
  let verify_recovery = verify_recovery && defined recovery_entry in
  let recorded = explore_crash_images || verify_recovery in
  let dynamic, dyn_warnings, recording =
    match entry with
    | Some entry when (t.run_dynamic || recorded) && defined entry ->
      Obs.Span.with_ ~name:"dynamic-check" (fun () ->
          execute t ~entry ?args ~clients ~recorded prog)
    | _ when not t.run_dynamic ->
      (Dynamic_skipped "dynamic analysis disabled", [], None)
    | None -> (Dynamic_skipped "no entry point", [], None)
    | Some entry ->
      (Dynamic_skipped (Fmt.str "entry %s not defined" entry), [], None)
  in
  let t2 = Clock.now () in
  (match dynamic with
  | Dynamic_ok s ->
    Log.info (fun m ->
        m "dynamic: %a; %d warning(s) in %.1f ms" Runtime.Dynamic.pp_summary s
          (List.length dyn_warnings)
          (Clock.span_s t1 t2 *. 1000.))
  | Dynamic_skipped reason -> Log.debug (fun m -> m "dynamic skipped: %s" reason));
  (* The requested crash tiers read the one recording in one sweep, or
     are skipped with the forward run's failure as their reason. The
     recovery tier runs every reachable crash image, corrupted under
     the media model, through the program's recovery entry; its
     warnings join the merged stream like the dynamic tier's. *)
  let crash_space, recovery, skipped =
    match recording with
    | Some (Ok r) ->
      let oracle =
        if explore_crash_images then Some Runtime.Crash_space.Sequential
        else None
      in
      let recovery =
        if verify_recovery then
          Some
            (Recover.start ~recovery_entry ~seed ~corrupt:true ~model:t.model
               prog)
        else None
      in
      let crash, recovery =
        Obs.Span.with_ ~name:"crash-explore" (fun () ->
            Crash_sweep.sweep ~bound:crash_bound ~seed ?oracle ?recovery r)
      in
      let crash = if explore_crash_images then Some crash else None in
      Option.iter
        (fun c ->
          Log.info (fun m -> m "crash space: %a" Runtime.Crash_space.pp_report c))
        crash;
      Option.iter
        (fun rv -> Log.info (fun m -> m "recovery: %a" Recover.pp_report rv))
        recovery;
      (crash, recovery, None)
    | Some (Error reason) -> (None, None, Some reason)
    | None -> (None, None, None)
  in
  let warnings =
    Analysis.Warning.dedup
      (static.Analysis.Checker.warnings @ dyn_warnings
      @ Option.fold ~none:[] ~some:(fun r -> r.Recover.warnings) recovery)
    |> Analysis.Warning.sort
  in
  {
    model = t.model;
    static;
    dynamic;
    dynamic_warnings = dyn_warnings;
    warnings;
    crash_space;
    crash_skipped = (if explore_crash_images then skipped else None);
    recovery;
    recovery_skipped = (if verify_recovery then skipped else None);
    elapsed_static = Clock.span_s t0 t1;
    elapsed_dynamic = Clock.span_s t1 t2;
  }

(* The "baseline compilation" of Table 9: a full front-end pass with no
   checking — emit the program to its textual form, re-parse it,
   validate, and build CFGs and the call graph. Returns elapsed
   seconds. *)
let baseline_compile prog =
  let t0 = Clock.now () in
  let text = Fmt.str "%a" Nvmir.Prog.pp prog in
  let reparsed = Nvmir.Parser.parse text in
  ignore (Nvmir.Prog.validate reparsed);
  List.iter
    (fun f -> ignore (Graphs.Cfg.of_func f))
    (Nvmir.Prog.funcs reparsed);
  ignore (Graphs.Callgraph.of_prog reparsed);
  Clock.elapsed_s t0

let violations r =
  List.filter
    (fun w -> Analysis.Warning.category w = Analysis.Warning.Model_violation)
    r.warnings

let performance_bugs r =
  List.filter
    (fun w -> Analysis.Warning.category w = Analysis.Warning.Performance)
    r.warnings

let pp_report ppf r =
  let pp_dynamic ppf = function
    | Dynamic_ok s -> Runtime.Dynamic.pp_summary ppf s
    | Dynamic_skipped reason -> Fmt.pf ppf "skipped (%s)" reason
  in
  let pp_skipped name ppf =
    Option.iter (Fmt.pf ppf "@ %s: skipped (%s)" name)
  in
  let pp_crash_space ppf = function
    | None -> pp_skipped "crash space" ppf r.crash_skipped
    | Some cs ->
      Fmt.pf ppf "@ crash space: %a" Report.pp_crash_score
        (Report.crash_score cs)
  in
  let pp_recovery ppf = function
    | None -> pp_skipped "recovery" ppf r.recovery_skipped
    | Some (rv : Recover.report) ->
      Fmt.pf ppf
        "@ recovery: %d image(s), %d corruption(s): %d restored, %d \
         flagged, %d silent-accept, %d crashed"
        rv.Recover.images_checked rv.Recover.corruptions_injected
        rv.Recover.restored rv.Recover.flagged rv.Recover.silent_accepts
        rv.Recover.crashes
  in
  Fmt.pf ppf
    "@[<v>DeepMC report (%a model)@ static: %.1f ms, dynamic: %.1f ms@ \
     dynamic: %a%a%a@ %d warning(s): %d violation(s), %d performance@ %a@]"
    Analysis.Model.pp r.model
    (r.elapsed_static *. 1000.)
    (r.elapsed_dynamic *. 1000.)
    pp_dynamic r.dynamic pp_crash_space r.crash_space pp_recovery r.recovery
    (List.length r.warnings)
    (List.length (violations r))
    (List.length (performance_bugs r))
    Fmt.(list ~sep:(any "@ ") Analysis.Warning.pp)
    r.warnings
