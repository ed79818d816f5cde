(* The DeepMC toolkit driver: the end-to-end pipeline of Figure 8.

   Given an IR program and the persistency-model flag (-strict, -epoch
   or -strand), the driver
     1. builds CFGs and the call graph,
     2. collects interprocedural traces,
     3. builds the DSG,
     4. applies the static checking rules,
     5. (optionally) instruments and executes the program with the
        runtime library attached,
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
  recovery : Recover.report option;
  elapsed_static : float;
  elapsed_dynamic : float;
}

(* Disjoint per-client object-id ranges keep shadow-segment keys
   distinct across client heaps; a client allocating a million objects
   would overflow into the next range, which no workload here approaches
   (and Shadow.key rejects ids beyond its field width). *)
let client_obj_id_stride = 1 lsl 20

let run_dynamic_analysis (t : t) ?entry ?args ?(clients = 1) prog =
  match entry with
  | None -> (Dynamic_skipped "no entry point", [])
  | Some entry -> (
    match Nvmir.Prog.find_func prog entry with
    | None -> (Dynamic_skipped (Fmt.str "entry %s not defined" entry), [])
    | Some _ when clients <= 1 -> (
      let pmem = Runtime.Pmem.create () in
      let checker = Runtime.Dynamic.create ~model:t.model () in
      Runtime.Dynamic.attach checker pmem;
      let interp = Runtime.Interp.create ~pmem prog in
      try
        ignore (Runtime.Interp.run ~entry ?args interp);
        (Dynamic_ok (Runtime.Dynamic.summary checker),
         Runtime.Dynamic.warnings checker)
      with
      | Runtime.Interp.Runtime_error (m, loc) ->
        ( Dynamic_skipped
            (Fmt.str "runtime error at %a: %s" Nvmir.Loc.pp loc m),
          Runtime.Dynamic.warnings checker )
      | Runtime.Interp.Out_of_fuel ->
        (Dynamic_skipped "execution exceeded fuel budget",
         Runtime.Dynamic.warnings checker))
    | Some _ ->
      (* N client domains execute the entry concurrently, each on its own
         heap, observed by one checker through client-bound listeners.
         The program and type env are read-only after parse, so sharing
         them across domains is safe. *)
      let checker = Runtime.Dynamic.create ~model:t.model () in
      let failures =
        Pool.map ~domains:clients ~chunk:1 (Pool.default ())
          (fun c ->
            let pmem =
              Runtime.Pmem.create
                ~first_obj_id:(c * client_obj_id_stride)
                ~obj_id_limit:((c + 1) * client_obj_id_stride)
                ()
            in
            Runtime.Dynamic.attach_client checker ~thread:c pmem;
            let interp = Runtime.Interp.create ~pmem prog in
            try
              ignore (Runtime.Interp.run ~entry ?args interp);
              None
            with
            | Runtime.Interp.Runtime_error (m, loc) ->
              Some
                (Fmt.str "client %d: runtime error at %a: %s" c Nvmir.Loc.pp
                   loc m)
            | Runtime.Interp.Out_of_fuel ->
              Some (Fmt.str "client %d: execution exceeded fuel budget" c))
          (List.init clients Fun.id)
        |> List.filter_map Fun.id
      in
      let ws = Runtime.Dynamic.warnings checker in
      (match failures with
      | [] -> (Dynamic_ok (Runtime.Dynamic.summary checker), ws)
      | first :: _ -> (Dynamic_skipped first, ws)))

(* Analyze a program. [entry]/[args] drive the optional dynamic run. *)
let analyze (t : t) ?roots ?entry ?args ?clients
    ?(explore_crash_images = false) ?crash_bound ?seed
    ?(verify_recovery = false) ?recovery_entry prog : report =
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
  let dynamic, dyn_warnings =
    if t.run_dynamic then
      Obs.Span.with_ ~name:"dynamic-check" (fun () ->
          run_dynamic_analysis t ?entry ?args ?clients prog)
    else (Dynamic_skipped "dynamic analysis disabled", [])
  in
  let t2 = Clock.now () in
  (match dynamic with
  | Dynamic_ok s ->
    Log.info (fun m ->
        m "dynamic: %a; %d warning(s) in %.1f ms" Runtime.Dynamic.pp_summary s
          (List.length dyn_warnings)
          (Clock.span_s t1 t2 *. 1000.))
  | Dynamic_skipped reason -> Log.debug (fun m -> m "dynamic skipped: %s" reason));
  (* The recovery tier: every reachable crash image, corrupted under
     the media model, run through the program's recovery entry. Its
     warnings join the merged stream like the dynamic tier's. *)
  let recovery =
    match (verify_recovery, entry) with
    | false, _ | _, None -> None
    | true, Some entry ->
      let rentry = Option.value recovery_entry ~default:"recover" in
      if
        Nvmir.Prog.find_func prog entry = None
        || Nvmir.Prog.find_func prog rentry = None
      then None
      else begin
        let r =
          Obs.Span.with_ ~name:"recover-verify" (fun () ->
              Recover.verify ~entry ?args ~recovery_entry:rentry
                ?bound:crash_bound ?seed ~model:t.model prog)
        in
        Log.info (fun m -> m "recovery: %a" Recover.pp_report r);
        Some r
      end
  in
  let recovery_warnings =
    match recovery with Some r -> r.Recover.warnings | None -> []
  in
  let warnings =
    Analysis.Warning.dedup
      (static.Analysis.Checker.warnings @ dyn_warnings @ recovery_warnings)
    |> Analysis.Warning.sort
  in
  let crash_space =
    match (explore_crash_images, entry) with
    | false, _ | _, None -> None
    | true, Some entry ->
      if Nvmir.Prog.find_func prog entry = None then None
      else begin
        let r =
          Obs.Span.with_ ~name:"crash-explore" (fun () ->
              Crash_sweep.explore_program ?bound:crash_bound ?seed ~entry
                ?args prog)
        in
        Log.info (fun m ->
            m "crash space: %a" Runtime.Crash_space.pp_report r);
        Some r
      end
  in
  {
    model = t.model;
    static;
    dynamic;
    dynamic_warnings = dyn_warnings;
    warnings;
    crash_space;
    recovery;
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
  let pp_crash_space ppf = function
    | None -> ()
    | Some cs ->
      Fmt.pf ppf "@ crash space: %a" Report.pp_crash_score
        (Report.crash_score cs)
  in
  let pp_recovery ppf = function
    | None -> ()
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
