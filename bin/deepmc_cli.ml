(* deepmc — command-line front end.

   Usage mirrors the paper's workflow: the user points the tool at an
   NVM program (textual IR) and selects the intended persistency model
   with -strict / -epoch / -strand; DeepMC runs the static pipeline and,
   when an entry point is given, the instrumented execution with the
   dynamic checker, then prints the warnings.

     deepmc check prog.nvmir --strict [--entry main] [--json] [--html r.html]
     deepmc check-mixed prog.nvmir --model-map models.txt
     deepmc fix prog.nvmir --strict [-o fixed.nvmir]
     deepmc crash-explore prog.nvmir [--bound 256] [--recover] [--json]
     deepmc recover prog.nvmir [--recovery-entry recover] [--json]
     deepmc fuzz prog.nvmir | --workload memslap [--budget N] [--random]
     deepmc fmt prog.nvmir [-i]
     deepmc dsg prog.nvmir --function nvm_lock
     deepmc cfg prog.nvmir [--callgraph]
     deepmc trace prog.nvmir [--root main]
     deepmc corpus [--name btree_map]
     deepmc rules *)

open Cmdliner

(* -v / -vv enable Logs-based pipeline tracing on stderr. *)
let setup_logs_term =
  let setup verbosity =
    let level =
      match List.length verbosity with
      | 0 -> Some Logs.Warning
      | 1 -> Some Logs.Info
      | _ -> Some Logs.Debug
    in
    Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
    Logs.set_level level
  in
  Term.(
    const setup
    $ Arg.(
        value & flag_all
        & info [ "v"; "verbose" ] ~doc:"Increase verbosity (repeatable)."))

let model_term =
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Check against strict persistency.")
  in
  let epoch =
    Arg.(value & flag & info [ "epoch" ] ~doc:"Check against epoch persistency.")
  in
  let strand =
    Arg.(value & flag & info [ "strand" ] ~doc:"Check against strand persistency.")
  in
  let combine strict epoch strand =
    match (strict, epoch, strand) with
    | true, false, false | false, false, false -> Ok Analysis.Model.Strict
    | false, true, false -> Ok Analysis.Model.Epoch
    | false, false, true -> Ok Analysis.Model.Strand
    | _ -> Error (`Msg "choose exactly one of --strict, --epoch, --strand")
  in
  Term.(term_result (const combine $ strict $ epoch $ strand))

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"NVM program in textual IR (.nvmir).")

let entry_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "entry" ] ~docv:"FUNC"
        ~doc:"Entry point for the dynamic (online) analysis.")

let no_dynamic_term =
  Arg.(value & flag & info [ "no-dynamic" ] ~doc:"Skip the dynamic analysis.")

let clients_term =
  Arg.(
    value & opt int 1
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "Run the dynamic analysis from N concurrent client domains, each \
           executing the entry on its own heap under one checker (default \
           1: single-domain).")

let load file =
  try Ok (Nvmir.Parser.parse_file file) with
  | Nvmir.Parser.Parse_error (m, line) ->
    Error (`Msg (Fmt.str "%s:%d: %s" file line m))
  | Sys_error m -> Error (`Msg m)

let validated prog =
  match Nvmir.Prog.validate prog with
  | [] -> Ok prog
  | errs ->
    Error
      (`Msg
         (Fmt.str "invalid program:@ %a"
            Fmt.(list ~sep:(any "@ ") Nvmir.Prog.pp_error)
            errs))

let suppressions_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "suppressions" ] ~docv:"FILE"
        ~doc:
          "Suppression database of validated false positives (see deepmc \
           suppress --help for the format).")

let json_term =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

(* Telemetry surface: either flag switches the Obs registry/tracer on
   for the whole run; the files are written at the end, before the
   warning count decides the exit code. *)
let metrics_json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the metrics-registry snapshot here \
           as JSON.")

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write a Chrome trace_event file here \
           (open in chrome://tracing or Perfetto; one track per domain).")

let obs_setup ~metrics_json ~trace_out =
  if metrics_json <> None || trace_out <> None then Obs.set_enabled true

let obs_write ~metrics_json ~trace_out =
  Option.iter
    (fun path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Fmt.pf ppf "%a@." Deepmc.Json_report.pp
        (Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ()));
      Format.pp_print_flush ppf ();
      close_out oc)
    metrics_json;
  Option.iter Obs.Span.write_file trace_out

(* One seed for every randomized path (crash-image sampling, generator
   workloads, the bug injector): any run is reproducible from it. *)
let seed_term =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Seed for every randomized component (deterministic).")

let html_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE" ~doc:"Also write an HTML report here.")

(* The analysis options the CLI exposes, built into one record: the DSA
   ablation flag and the §4.1 interface annotations, which mark
   externally-created variables as referencing NVM, e.g. --pmem-root
   nvm_lock:omutex. *)
let config_term =
  let field_insensitive =
    Arg.(
      value & flag
      & info [ "field-insensitive" ]
          ~doc:"Disable field sensitivity in the DSA (ablation mode).")
  in
  let parse s =
    match String.index_opt s ':' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected FUNC:VAR")
  in
  let print ppf (f, v) = Fmt.pf ppf "%s:%s" f v in
  let root_conv = Arg.conv (parse, print) in
  let pmem_roots =
    Arg.(
      value & opt_all root_conv []
      & info [ "pmem-root" ] ~docv:"FUNC:VAR"
          ~doc:
            "Annotate a variable as referencing persistent memory (interface \
             annotation; repeatable).")
  in
  let make field_insensitive persistent_roots =
    {
      Analysis.Config.default with
      field_sensitive = not field_insensitive;
      persistent_roots;
    }
  in
  Term.(const make $ field_insensitive $ pmem_roots)

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains in the shared analysis pool (default: \
           available cores - 1, capped at 8).")

let stats_term =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print checker statistics (traces, events, peak live paths, \
           pool activity) on stderr.")

(* Client path: ship the program text to a resident `deepmc serve`
   daemon instead of analyzing in-process. Static checking only — the
   daemon has no harness to run entries under the dynamic checker. *)
let connect_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Send the check to a resident analyzer daemon ($(b,deepmc serve \
           --socket) SOCK) instead of analyzing in-process. Static analysis \
           only; incompatible with --entry.")

let run_connected ~sock ~file ~model ~config ~json =
  let ( let* ) = Result.bind in
  let* text =
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error m -> Error (`Msg m)
  in
  let* resp =
    Result.map_error
      (fun m -> `Msg m)
      (Serve.Client.check ~sock ~name:file ~model ~config ~text ())
  in
  if json then Fmt.pr "%a@." Deepmc.Json_report.pp resp
  else begin
    let warnings =
      match Serve.Protocol.member "warnings" resp with
      | Some (Serve.Protocol.List ws) -> ws
      | _ -> []
    in
    List.iter
      (fun w ->
        let s key =
          Option.value ~default:"?" (Serve.Protocol.string_member key w)
        in
        let line =
          Option.value ~default:0 (Serve.Protocol.int_member "line" w)
        in
        Fmt.pr "@[<hov 2>WARNING [%s] %s:%d (%s, %s model, %s):@ %s@]@."
          (s "rule") (s "file") line (s "category") (s "model") (s "origin")
          (s "message"))
      warnings;
    Fmt.pr "%d warning(s) [cache %s, %d function(s) invalidated]@."
      (List.length warnings)
      (Option.value ~default:"?"
         (Serve.Protocol.string_member "cache" resp))
      (Option.value ~default:0
         (Serve.Protocol.int_member "functions_invalidated" resp))
  end;
  let nwarnings =
    match Serve.Protocol.member "warnings" resp with
    | Some (Serve.Protocol.List ws) -> List.length ws
    | _ -> 0
  in
  if nwarnings = 0 then Ok ()
  else Error (`Msg (Fmt.str "%d warning(s)" nwarnings))

let check_cmd =
  let explore_term =
    Arg.(
      value & flag
      & info [ "explore-crash-images" ]
          ~doc:
            "Additionally enumerate reachable crash images at every crash \
             point (requires --entry).")
  in
  let crash_bound_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-bound" ] ~docv:"N"
          ~doc:"Maximum images per crash point for --explore-crash-images.")
  in
  let run () model file entry clients no_dynamic config suppressions json
      html domains stats explore crash_bound seed metrics_json trace_out
      connect =
    let ( let* ) = Result.bind in
    match connect with
    | Some sock ->
      if entry <> None then
        Error (`Msg "--connect serves static checks only; drop --entry")
      else
        run_connected ~sock ~file ~model ~config ~json
    | None ->
    let* prog = load file in
    let* prog = validated prog in
    Option.iter Pool.set_default_size domains;
    obs_setup ~metrics_json ~trace_out;
    let driver =
      Deepmc.Driver.make ~config ~run_dynamic:(not no_dynamic) model
    in
    let report =
      Deepmc.Driver.analyze driver ?entry ~clients
        ~explore_crash_images:explore ?crash_bound ~seed prog
    in
    if stats then begin
      let s = report.Deepmc.Driver.static in
      let ps = Pool.stats (Pool.default ()) in
      Fmt.epr
        "traces: %d (%d events)@.peak live paths: %d@.static time: %.1f \
         ms@.pool: %d domain(s), %d job(s), %d chunk(s)@."
        s.Analysis.Checker.trace_count s.Analysis.Checker.event_count
        s.Analysis.Checker.peak_paths
        (report.Deepmc.Driver.elapsed_static *. 1000.)
        ps.Pool.size ps.Pool.jobs ps.Pool.chunks
    end;
    let* warnings =
      match suppressions with
      | None -> Ok report.Deepmc.Driver.warnings
      | Some path -> (
        try
          let db = Deepmc.Suppress.load path in
          let kept, suppressed =
            Deepmc.Suppress.filter db report.Deepmc.Driver.warnings
          in
          List.iter
            (fun ((w : Analysis.Warning.t), (e : Deepmc.Suppress.entry)) ->
              Fmt.pr "suppressed %a %s (%s)@." Nvmir.Loc.pp
                w.Analysis.Warning.loc
                (Analysis.Warning.rule_name w.Analysis.Warning.rule)
                e.Deepmc.Suppress.reason)
            suppressed;
          Ok kept
        with Deepmc.Suppress.Parse_error (m, line) ->
          Error (`Msg (Fmt.str "%s:%d: %s" path line m)))
    in
    Option.iter
      (fun path ->
        Deepmc.Html_report.write ~title:(Filename.basename file) prog report
          path)
      html;
    if json then
      Fmt.pr "%a@." Deepmc.Json_report.pp (Deepmc.Json_report.of_report report)
    else Fmt.pr "%a@." Deepmc.Driver.pp_report report;
    obs_write ~metrics_json ~trace_out;
    if warnings = [] then Ok ()
    else Error (`Msg (Fmt.str "%d warning(s)" (List.length warnings)))
  in
  let doc = "Check an NVM program against a persistency model." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ model_term $ file_arg $ entry_term
       $ clients_term $ no_dynamic_term $ config_term
       $ suppressions_term $ json_term $ html_term
       $ domains_term $ stats_term $ explore_term
       $ crash_bound_term $ seed_term $ metrics_json_term $ trace_out_term
       $ connect_term))

(* Mixed-model checking: a map file with one "function model" pair per
   line assigns each analysis root its intended persistency model. *)
let check_mixed_cmd =
  let map_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "model-map" ] ~docv:"FILE"
          ~doc:
            "Per-root model assignments, one 'function model' pair per line \
             (model is strict, epoch or strand).")
  in
  let parse_map path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let entries =
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then None
          else
            match
              String.split_on_char ' ' line |> List.filter (fun x -> x <> "")
            with
            | [ f; m ] -> (
              match Analysis.Model.of_string m with
              | Some model -> Some (Ok (f, model))
              | None -> Some (Error (`Msg (Fmt.str "unknown model %S" m))))
            | _ -> Some (Error (`Msg (Fmt.str "bad model-map line: %s" line))))
        (String.split_on_char '\n' s)
    in
    List.fold_right
      (fun e acc ->
        match (e, acc) with
        | Ok kv, Ok l -> Ok (kv :: l)
        | Error m, _ -> Error m
        | _, (Error _ as e) -> e)
      entries (Ok [])
  in
  let run file map_file =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    let* map = parse_map map_file in
    let roots = List.map fst map in
    let model_of root =
      Option.value ~default:Analysis.Model.Strict (List.assoc_opt root map)
    in
    let r = Analysis.Checker.check_mixed ~model_of ~roots prog in
    List.iter
      (fun (root, model, warnings) ->
        Fmt.pr "@[<v 2>%s (%a model): %d warning(s)@ %a@]@." root
          Analysis.Model.pp model (List.length warnings)
          Fmt.(list ~sep:(any "@ ") Analysis.Warning.pp)
          warnings)
      r.Analysis.Checker.per_root;
    if r.Analysis.Checker.mixed_warnings = [] then Ok ()
    else
      Error
        (`Msg
           (Fmt.str "%d warning(s)"
              (List.length r.Analysis.Checker.mixed_warnings)))
  in
  let doc =
    "Check a program whose parts implement different persistency models \
     (lifts the paper's single-model limitation)."
  in
  Cmd.v (Cmd.info "check-mixed" ~doc)
    Term.(term_result (const run $ file_arg $ map_arg))

let fix_cmd =
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the repaired program here (default: stdout).")
  in
  let run model file out =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    let fixed, outcomes, remaining =
      Deepmc.Autofix.fix_until_clean ~model prog
    in
    List.iter (fun o -> Fmt.epr "%a@." Deepmc.Autofix.pp_outcome o) outcomes;
    List.iter
      (fun w -> Fmt.epr "UNFIXED %a@." Analysis.Warning.pp w)
      remaining;
    let text = Fmt.str "%a@." Nvmir.Prog.pp fixed in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc);
    Ok ()
  in
  let doc =
    "Automatically repair the mechanically-fixable persistency bugs (the \
     future work of the paper's Section 4.3)."
  in
  Cmd.v (Cmd.info "fix" ~doc)
    Term.(term_result (const run $ model_term $ file_arg $ out_term))

let dsg_cmd =
  let func_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "function" ] ~docv:"FUNC" ~doc:"Dump only this function's DSG.")
  in
  let run file func =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    let dsg = Dsa.Dsg.build prog in
    let funcs =
      match func with
      | Some f -> [ f ]
      | None -> Nvmir.Prog.func_names prog
    in
    List.iter
      (fun f -> Fmt.pr "%a@.@." Dsa.Dsg.pp_function_view (dsg, f))
      funcs;
    Ok ()
  in
  let doc = "Dump the Data Structure Graph of a program (cf. Figure 10)." in
  Cmd.v (Cmd.info "dsg" ~doc)
    Term.(term_result (const run $ file_arg $ func_term))

let cfg_cmd =
  let func_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "function" ] ~docv:"FUNC" ~doc:"Only this function's CFG.")
  in
  let callgraph_term =
    Arg.(
      value & flag
      & info [ "callgraph" ] ~doc:"Emit the program's call graph instead.")
  in
  let run file func callgraph =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    if callgraph then begin
      print_string
        (Graphs.Dot.of_callgraph (Graphs.Callgraph.of_prog prog) prog);
      Ok ()
    end
    else begin
      let funcs =
        match func with
        | Some f -> Option.to_list (Nvmir.Prog.find_func prog f)
        | None -> Nvmir.Prog.funcs prog
      in
      List.iter
        (fun f -> print_string (Graphs.Dot.of_cfg (Graphs.Cfg.of_func f)))
        funcs;
      Ok ()
    end
  in
  let doc = "Emit control-flow graphs (or the call graph) as Graphviz dot." in
  Cmd.v (Cmd.info "cfg" ~doc)
    Term.(term_result (const run $ file_arg $ func_term $ callgraph_term))

let trace_cmd =
  let root_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"FUNC"
          ~doc:"Dump only traces rooted at this function.")
  in
  let run file root =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    let dsg = Dsa.Dsg.build prog in
    let roots = Option.map (fun r -> [ r ]) root in
    let per_root = Analysis.Trace.collect ?roots dsg prog in
    List.iter
      (fun (r, traces) ->
        Fmt.pr "@[<v 2>root %s: %d trace(s)@ %a@]@.@." r (List.length traces)
          Fmt.(list ~sep:(any "@ @ ") Analysis.Trace.pp)
          traces)
      per_root;
    Ok ()
  in
  let doc =
    "Dump the collected persistency traces, after interprocedural merging \
     (cf. Figure 11)."
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(term_result (const run $ file_arg $ root_term))

let corpus_cmd =
  let name_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME" ~doc:"Only this corpus program.")
  in
  let corpus_json_term =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit results as JSON.")
  in
  let run name json =
    let programs =
      match name with
      | None -> Corpus.Registry.all
      | Some n -> (
        match Corpus.Registry.find n with
        | Some p -> [ p ]
        | None -> [])
    in
    if programs = [] then
      Error (`Msg "no such corpus program (try without --name for the list)")
    else if json then begin
      let items =
        List.map
          (fun (p : Corpus.Types.program) ->
            let _, score = Corpus.Registry.analyze p in
            Deepmc.Json_report.Obj
              [
                ("program", Deepmc.Json_report.String p.Corpus.Types.name);
                ( "framework",
                  Deepmc.Json_report.String
                    (Corpus.Types.framework_name p.Corpus.Types.framework) );
                ( "model",
                  Deepmc.Json_report.String
                    (Analysis.Model.to_string (Corpus.Types.model p)) );
                ("score", Deepmc.Json_report.of_score score);
              ])
          programs
      in
      Fmt.pr "%a@." Deepmc.Json_report.pp (Deepmc.Json_report.List items);
      Ok ()
    end
    else begin
      List.iter
        (fun (p : Corpus.Types.program) ->
          let _, score = Corpus.Registry.analyze p in
          Fmt.pr "%-22s %-10s %-6s %2d/%-2d validated/warnings@."
            p.Corpus.Types.name
            (Corpus.Types.framework_name p.Corpus.Types.framework)
            (Analysis.Model.to_string (Corpus.Types.model p))
            (Deepmc.Report.validated_count score)
            (Deepmc.Report.warning_count score))
        programs;
      Ok ()
    end
  in
  let doc = "Analyze the bundled corpus of buggy NVM programs." in
  Cmd.v
    (Cmd.info "corpus" ~doc)
    Term.(term_result (const run $ name_term $ corpus_json_term))

(* Reachable-image exploration: at every crash point (and at exit)
   enumerate the durable images any write-back order could leave
   behind, starting with the prefix image in which nothing in flight
   persisted. *)
let crash_explore_cmd =
  let entry_req =
    Arg.(
      value
      & opt string "main"
      & info [ "entry" ] ~docv:"FUNC" ~doc:"Entry point (default main).")
  in
  let bound_term =
    Arg.(
      value
      & opt int Runtime.Crash_space.default_bound
      & info [ "bound" ] ~docv:"N"
          ~doc:
            "Maximum images per crash point: exhaustive below, sampled \
             above.")
  in
  let domains_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for the crash-point fan-out.")
  in
  let recover_flag =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Additionally run the recovery entry (`recover') over every \
             enumerated image under the media-corruption model.")
  in
  let run () file entry bound seed domains recover json metrics_json
      trace_out =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    obs_setup ~metrics_json ~trace_out;
    match Nvmir.Prog.find_func prog entry with
    | None -> Error (`Msg (Fmt.str "entry %s not defined" entry))
    | Some _ ->
      let r =
        Deepmc.Crash_sweep.explore_program ?domains ~bound ~seed ~entry prog
      in
      let* recovery =
        if not recover then Ok None
        else if Nvmir.Prog.find_func prog "recover" = None then
          Error (`Msg "--recover: no `recover' function defined")
        else
          Ok (Some (Recover.verify ~entry ~bound ~seed prog))
      in
      (match (json, recovery) with
      | true, None ->
        Fmt.pr "%a@." Deepmc.Json_report.pp
          (Deepmc.Json_report.of_crash_space r)
      | true, Some rv ->
        Fmt.pr "%a@." Deepmc.Json_report.pp
          (Deepmc.Json_report.Obj
             [
               ("crash_space", Deepmc.Json_report.of_crash_space r);
               ("recovery", Deepmc.Json_report.of_recovery rv);
             ])
      | false, None -> Fmt.pr "%a@." Runtime.Crash_space.pp_report r
      | false, Some rv ->
        Fmt.pr "%a@.%a@." Runtime.Crash_space.pp_report r Recover.pp_report
          rv);
      obs_write ~metrics_json ~trace_out;
      let recovery_warnings =
        match recovery with
        | Some rv -> List.length rv.Recover.warnings
        | None -> 0
      in
      if r.Runtime.Crash_space.inconsistent > 0 then
        Error
          (`Msg
             (Fmt.str "%d inconsistent crash image(s)"
                r.Runtime.Crash_space.inconsistent))
      else if recovery_warnings > 0 then
        Error (`Msg (Fmt.str "%d recovery warning(s)" recovery_warnings))
      else Ok ()
  in
  let doc =
    "Enumerate the durable images reachable at every crash point (any \
     subset of in-flight cache lines persisted) and check each against \
     the strict-order write-sequence oracle."
  in
  Cmd.v (Cmd.info "crash-explore" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ file_arg $ entry_req $ bound_term
       $ seed_term $ domains_term $ recover_flag $ json_term
       $ metrics_json_term $ trace_out_term))

(* Recovery-path verification: for every durable image a crash can
   leave, apply the media-corruption model and execute the program's
   recovery entry on the reconstituted heap, classifying each outcome
   and reporting the recovery-tier rules. *)
let recover_cmd =
  let entry_req =
    Arg.(
      value
      & opt string "main"
      & info [ "entry" ] ~docv:"FUNC"
          ~doc:"Forward entry point whose crash images are enumerated.")
  in
  let recovery_entry_term =
    Arg.(
      value
      & opt string "recover"
      & info [ "recovery-entry" ] ~docv:"FUNC"
          ~doc:"Recovery function to execute on each image.")
  in
  let bound_term =
    Arg.(
      value
      & opt int Runtime.Crash_space.default_bound
      & info [ "bound" ] ~docv:"N"
          ~doc:
            "Maximum images per crash point: exhaustive below, sampled \
             above.")
  in
  let no_corrupt_term =
    Arg.(
      value & flag
      & info [ "no-corrupt" ]
          ~doc:
            "Skip media corruption: run recovery on the pristine crash \
             images only.")
  in
  let run () model file entry recovery_entry bound seed no_corrupt json
      metrics_json trace_out =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    obs_setup ~metrics_json ~trace_out;
    let* () =
      if Nvmir.Prog.find_func prog entry = None then
        Error (`Msg (Fmt.str "entry %s not defined" entry))
      else if Nvmir.Prog.find_func prog recovery_entry = None then
        Error
          (`Msg (Fmt.str "recovery entry %s not defined" recovery_entry))
      else Ok ()
    in
    let r =
      Recover.verify ~entry ~recovery_entry ~bound ~seed
        ~corrupt:(not no_corrupt) ~model prog
    in
    if json then
      Fmt.pr "%a@." Deepmc.Json_report.pp (Deepmc.Json_report.of_recovery r)
    else Fmt.pr "%a@." Recover.pp_report r;
    obs_write ~metrics_json ~trace_out;
    (match r.Recover.warnings with
    | [] -> Ok ()
    | ws -> Error (`Msg (Fmt.str "%d recovery warning(s)" (List.length ws))))
  in
  let doc =
    "Verify the recovery path: run the recovery entry over every durable \
     image a crash can leave, with media corruption injected, and report \
     unguarded reads, silent accepts and non-idempotence."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ model_term $ file_arg $ entry_req
       $ recovery_entry_term $ bound_term $ seed_term $ no_corrupt_term
       $ json_term $ metrics_json_term $ trace_out_term))

let fmt_cmd =
  let in_place_term =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite the file.")
  in
  let run file in_place =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let text = Fmt.str "%a@." Nvmir.Prog.pp prog in
    if in_place then begin
      let oc = open_out file in
      output_string oc text;
      close_out oc
    end
    else print_string text;
    Ok ()
  in
  let doc = "Canonically format a textual IR file (parse and pretty-print)." in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(term_result (const run $ file_arg $ in_place_term))

(* Mutation-based fault injection with recall/precision evaluation: the
   corpus (post-autofix) and optional generator programs are mutated by
   the Table 4/5 operator catalog and every detector tier is measured
   against the mutants' ground truth. *)
let inject_cmd =
  let framework_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "framework" ] ~docv:"NAME"
          ~doc:"Restrict to one corpus framework (pmdk, pmfs, nvm-direct, \
                mnemosyne).")
  in
  let name_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME" ~doc:"Restrict to one corpus program.")
  in
  let synth_term =
    Arg.(
      value & opt int 0
      & info [ "synth" ] ~docv:"N"
          ~doc:"Also mutate N clean generator programs (seeded from --seed).")
  in
  let operator_term =
    Arg.(
      value & opt_all string []
      & info [ "operator" ] ~docv:"OP"
          ~doc:
            "Mutation operator to apply (repeatable; default: all). One of \
             delete-flush, delete-fence, reorder-fence, hoist-write, \
             duplicate-flush, widen-flush, drop-tx-add, split-strand.")
  in
  let no_crash_term =
    Arg.(
      value & flag
      & info [ "no-crash" ] ~doc:"Skip the crash-space explorer tier.")
  in
  let crash_bound_term =
    Arg.(
      value & opt int 192
      & info [ "crash-bound" ] ~docv:"N"
          ~doc:"Maximum images per crash point for the explorer tier.")
  in
  let save_fn_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-fn" ] ~docv:"DIR"
          ~doc:
            "Persist mutants their expected detector tier missed as .nvmir \
             files (the false-negative corpus).")
  in
  let ablate_offsets_term =
    Arg.(
      value & flag
      & info [ "ablate-offsets" ]
          ~doc:
            "Disable the DSG offset lattice end-to-end (autofix, mutation \
             admission and static scoring), reproducing the historical \
             pointer-arithmetic blind spot.")
  in
  let run () framework name synth operators no_dynamic no_crash crash_bound
      save_fn ablate_offsets seed domains json metrics_json trace_out =
    let ( let* ) = Result.bind in
    Option.iter Pool.set_default_size domains;
    obs_setup ~metrics_json ~trace_out;
    let* framework =
      match framework with
      | None -> Ok None
      | Some f -> (
        match
          List.find_opt
            (fun fw ->
              String.equal
                (String.lowercase_ascii (Corpus.Types.framework_name fw))
                (String.lowercase_ascii f))
            Corpus.Types.all_frameworks
        with
        | Some fw -> Ok (Some fw)
        | None -> Error (`Msg (Fmt.str "unknown framework %S" f)))
    in
    let* operators =
      match operators with
      | [] -> Ok Inject.Mutation.all_operators
      | names ->
        List.fold_right
          (fun n acc ->
            let* acc = acc in
            match Inject.Mutation.operator_of_string n with
            | Some op -> Ok (op :: acc)
            | None -> Error (`Msg (Fmt.str "unknown operator %S" n)))
          names (Ok [])
    in
    let config =
      { Analysis.Config.default with offset_sensitive = not ablate_offsets }
    in
    let corpus =
      Inject.Evaluate.corpus_bases ~config ?framework ?name ()
    in
    let* () =
      if corpus = [] && name <> None then
        Error (`Msg "no such corpus program (see deepmc corpus)")
      else Ok ()
    in
    let bases =
      corpus
      @ (if framework = None && name = None then
           Inject.Evaluate.exemplar_bases ~config ()
         else [])
      @
      if synth > 0 then
        Inject.Evaluate.synth_bases ~config ~seed ~count:synth
          ~nfuncs:8 ()
      else []
    in
    let summary =
      Inject.Evaluate.run ?domains ~operators ~seed ~dynamic:(not no_dynamic)
        ~crash:(not no_crash) ~crash_bound bases
    in
    (match save_fn with
    | None -> ()
    | Some dir ->
      let paths = Inject.Evaluate.save_false_negatives ~dir summary in
      Fmt.epr "wrote %d false negative(s) to %s@." (List.length paths) dir);
    if json then
      Fmt.pr "%a@." Deepmc.Json_report.pp (Inject.Evaluate.to_json summary)
    else Fmt.pr "%a" Inject.Evaluate.pp_summary summary;
    obs_write ~metrics_json ~trace_out;
    Ok ()
  in
  let doc =
    "Inject persistency bugs into warning-clean programs and measure \
     per-operator detector recall/precision."
  in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ framework_term $ name_term $ synth_term
       $ operator_term $ no_dynamic_term $ no_crash_term $ crash_bound_term
       $ save_fn_term $ ablate_offsets_term $ seed_term $ domains_term
       $ json_term $ metrics_json_term $ trace_out_term))

let rules_cmd =
  let run () =
    List.iter
      (fun (m : Analysis.Rules.rule_meta) ->
        Fmt.pr "@[<v 2>%s [%a] (models: %a)@ %s@]@.@."
          (Analysis.Warning.rule_name m.Analysis.Rules.id)
          Analysis.Warning.pp_category
          (Analysis.Warning.category_of_rule m.Analysis.Rules.id)
          Fmt.(list ~sep:(any ", ") Analysis.Model.pp)
          m.Analysis.Rules.models m.Analysis.Rules.statement)
      Analysis.Rules.catalog;
    Ok ()
  in
  let doc = "Print the checking-rule catalog (Tables 4 and 5)." in
  Cmd.v (Cmd.info "rules" ~doc) Term.(term_result (const run $ const ()))

let stats_cmd =
  let run () =
    List.iter
      (fun (m : Obs.Metrics.meta) ->
        Fmt.pr "%-26s %-9s %s@." m.Obs.Metrics.m_name
          (Obs.Metrics.kind_name m.Obs.Metrics.m_kind)
          m.Obs.Metrics.m_desc)
      (Obs.Metrics.catalog ());
    Ok ()
  in
  let doc =
    "Print the telemetry instrument catalog (name, kind, description). \
     Values are collected per run with --metrics-json on check, \
     crash-explore and inject."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(term_result (const run $ const ()))

(* Coverage-guided interleaving fuzzing of one program: schedule
   genomes (delay-injection probe + context switches at persistence
   boundaries) are replayed deterministically; warnings come from the
   dynamic checker plus the fuzzer's PMRace-style detectors. *)
let fuzz_cmd =
  let budget_term =
    Arg.(
      value & opt int 24
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Schedule executions to spend (the fixed-schedule baseline \
             replay is not counted).")
  in
  let random_term =
    Arg.(
      value & flag
      & info [ "random" ]
          ~doc:
            "Draw schedules uniformly instead of coverage-guided (the \
             ablation baseline).")
  in
  let fuzz_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"NVM program in textual IR (.nvmir); or use --workload.")
  in
  let workload_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Fuzz a built-in IR rendition of an application workload \
             (memslap, redis or ycsb) instead of a FILE: the driver's \
             operation mix and key distribution over one shared region, \
             one fuzz_client_* per client.")
  in
  let run () model file workload entry clients budget random seed domains json
      metrics_json trace_out =
    let ( let* ) = Result.bind in
    let* name, prog =
      match (workload, file) with
      | Some w, None -> (
        match Workloads.Fuzz_targets.find w with
        | Some gen -> Ok (w, gen ~clients:(max clients 1) ~seed ())
        | None ->
          Error
            (`Msg
               (Fmt.str "unknown workload %s (available: %s)" w
                  (String.concat ", "
                     (List.map fst Workloads.Fuzz_targets.all)))))
      | None, Some file ->
        let* prog = load file in
        Ok (Filename.basename file, prog)
      | Some _, Some _ -> Error (`Msg "choose a FILE or --workload, not both")
      | None, None -> Error (`Msg "a FILE or --workload is required")
    in
    let* prog = validated prog in
    Option.iter Pool.set_default_size domains;
    obs_setup ~metrics_json ~trace_out;
    let entry = Option.value entry ~default:"main" in
    let* () =
      if Nvmir.Prog.find_func prog entry <> None then Ok ()
      else Error (`Msg (Fmt.str "entry %s not defined" entry))
    in
    let target =
      {
        Fuzz.Campaign.tname = name;
        prog;
        model;
        entry;
        entry_args = [];
        clients;
      }
    in
    let mode = if random then Fuzz.Campaign.Random else Fuzz.Campaign.Guided in
    let o = Fuzz.Campaign.run ~seed ~budget ?domains ~mode target in
    let baseline_keys =
      List.map Analysis.Warning.dedup_key o.Fuzz.Campaign.baseline_warnings
    in
    let new_warnings =
      List.filter
        (fun w ->
          not (List.mem (Analysis.Warning.dedup_key w) baseline_keys))
        o.Fuzz.Campaign.warnings
    in
    if json then
      Fmt.pr "%a@." Deepmc.Json_report.pp
        (Deepmc.Json_report.Obj
           [
             ("target", Deepmc.Json_report.String name);
             ("entry", Deepmc.Json_report.String entry);
             ( "mode",
               Deepmc.Json_report.String (Fuzz.Campaign.mode_name mode) );
             ("seed", Deepmc.Json_report.Int seed);
             ("budget", Deepmc.Json_report.Int budget);
             ("clients", Deepmc.Json_report.Int clients);
             ("executions", Deepmc.Json_report.Int o.Fuzz.Campaign.executions);
             ( "nboundaries",
               Deepmc.Json_report.Int o.Fuzz.Campaign.nboundaries );
             ( "novel_schedules",
               Deepmc.Json_report.Int o.Fuzz.Campaign.novel_schedules );
             ("pair_bits", Deepmc.Json_report.Int o.Fuzz.Campaign.pair_bits);
             ("aborted", Deepmc.Json_report.Int o.Fuzz.Campaign.aborted);
             ( "coverage",
               Deepmc.Json_report.String o.Fuzz.Campaign.coverage );
             ( "baseline_warnings",
               Deepmc.Json_report.List
                 (List.map Deepmc.Json_report.of_warning
                    o.Fuzz.Campaign.baseline_warnings) );
             ( "new_warnings",
               Deepmc.Json_report.List
                 (List.map Deepmc.Json_report.of_warning new_warnings) );
           ])
    else begin
      Fmt.pr
        "fuzz %s: %s mode, %d execution(s) over %d boundaries, %d novel \
         schedule(s), %d pair bit(s)@."
        name
        (Fuzz.Campaign.mode_name mode)
        o.Fuzz.Campaign.executions o.Fuzz.Campaign.nboundaries
        o.Fuzz.Campaign.novel_schedules o.Fuzz.Campaign.pair_bits;
      match new_warnings with
      | [] -> Fmt.pr "no schedule-dependent warnings beyond the baseline@."
      | ws ->
        Fmt.pr "%d warning(s) the fixed schedule misses:@." (List.length ws);
        List.iter (fun w -> Fmt.pr "  %a@." Analysis.Warning.pp w) ws
    end;
    obs_write ~metrics_json ~trace_out;
    Ok ()
  in
  let doc =
    "Coverage-guided interleaving fuzzing of the dynamic tier: search \
     delay-injection points and context switches at persistence boundaries \
     for schedule-dependent persistency bugs."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ model_term $ fuzz_file_arg
       $ workload_term $ entry_term $ clients_term $ budget_term
       $ random_term $ seed_term $ domains_term $ json_term
       $ metrics_json_term $ trace_out_term))

(* Warning provenance: the same pipeline as `check` with witness
   capture switched on, the tiers read before the driver's cross-tier
   dedup, and the result rendered as evidence bundles plus an annotated
   IR listing. See lib/explain. *)
let explain_cmd =
  let fuzz_budget_term =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Additionally run an N-execution fuzz campaign over the entry \
             and fold its witnesses into the bundles (0: off).")
  in
  let crash_term =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Additionally enumerate reachable crash images and bundle the \
             inconsistent ones (requires --entry).")
  in
  let recover_term =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Additionally verify the recovery path over the crash images \
             and bundle its witnesses (requires --entry and a recovery \
             function).")
  in
  let recovery_entry_term =
    Arg.(
      value
      & opt string "recover"
      & info [ "recovery-entry" ] ~docv:"FUNC"
          ~doc:"Recovery function for --recover.")
  in
  let run () model file entry clients fuzz_budget crash recover
      recovery_entry seed json html metrics_json trace_out =
    let ( let* ) = Result.bind in
    let* prog = load file in
    let* prog = validated prog in
    obs_setup ~metrics_json ~trace_out;
    Analysis.Witness.set_enabled true;
    let driver = Deepmc.Driver.make model in
    let report =
      Deepmc.Driver.analyze driver ?entry ~clients
        ~explore_crash_images:crash ~verify_recovery:recover ~recovery_entry
        ~seed prog
    in
    Option.iter
      (fun path ->
        Deepmc.Html_report.write ~title:(Filename.basename file) prog report
          path)
      html;
    let* fuzz =
      if fuzz_budget <= 0 then Ok None
      else begin
        let entry = Option.value entry ~default:"main" in
        if Nvmir.Prog.find_func prog entry = None then
          Error (`Msg (Fmt.str "--fuzz: entry %s not defined" entry))
        else
          let target =
            {
              Fuzz.Campaign.tname = Filename.basename file;
              prog;
              model;
              entry;
              entry_args = [];
              clients;
            }
          in
          Ok
            (Some
               (Fuzz.Campaign.run ~seed ~budget:fuzz_budget
                  ~mode:Fuzz.Campaign.Guided target))
      end
    in
    let bundles = Explain.build ?fuzz report in
    if json then
      Fmt.pr "%a@." Deepmc.Json_report.pp
        (Explain.to_json ~file ~model bundles)
    else print_string (Explain.render ~file ~model ~prog bundles);
    obs_write ~metrics_json ~trace_out;
    Ok ()
  in
  let doc =
    "Explain every warning with a cross-tier witness: the minimal static \
     event slice, the dynamic shadow-state transition, the reproducing \
     fuzz genome, the crash image and the recovery verdict, correlated \
     into evidence bundles by bug identity."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ model_term $ file_arg $ entry_term
       $ clients_term $ fuzz_budget_term $ crash_term $ recover_term
       $ recovery_entry_term $ seed_term $ json_term $ html_term
       $ metrics_json_term $ trace_out_term))

(* The resident analyzer: keeps the cross-run caches warm and answers
   check/crash-explore/inject requests over a socket (or stdio), or
   re-checks a watched directory. See lib/serve. *)
let serve_cmd =
  let socket_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at PATH.")
  in
  let stdio_term =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve line-delimited JSON requests from stdin to stdout \
             (single deterministic client; used by the test suite).")
  in
  let watch_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:
            "Poll DIR for .nvmir changes and re-check changed files, \
             printing one line per re-check. The model flags select the \
             model watched files are checked under.")
  in
  let once_term =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"With --watch: one scan pass, then exit.")
  in
  let interval_term =
    Arg.(
      value & opt int 200
      & info [ "interval" ] ~docv:"MS"
          ~doc:"Polling interval for --watch, milliseconds.")
  in
  let max_requests_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Exit after N requests (watch re-checks included).")
  in
  let run () model socket stdio watch once interval max_requests config
      domains metrics_json trace_out =
    Option.iter Pool.set_default_size domains;
    obs_setup ~metrics_json ~trace_out;
    let t = Serve.Daemon.create () in
    let r =
      match (socket, stdio, watch) with
      | (Some _, false, None | None, true, None)
        when config <> Analysis.Config.default ->
        Error
          (`Msg
             "--field-insensitive and --pmem-root apply to --watch only; \
              socket and stdio clients set them per request")
      | None, true, None ->
        Serve.Daemon.serve_stdio ?max_requests t;
        Ok ()
      | Some path, false, None ->
        Serve.Daemon.serve_socket ?max_requests t ~path;
        Ok ()
      | None, false, Some dir ->
        let params = Serve.Cache.default_params ~config model in
        Serve.Daemon.serve_watch ?max_requests ~interval_ms:interval ~once t
          ~dir ~params;
        Ok ()
      | None, false, None ->
        Error (`Msg "choose one of --socket PATH, --stdio, --watch DIR")
      | _ -> Error (`Msg "choose exactly one of --socket, --stdio, --watch")
    in
    obs_write ~metrics_json ~trace_out;
    r
  in
  let doc =
    "Run the resident incremental analyzer: a long-lived daemon that keeps \
     DSG summaries, interprocedural memo results and per-root warnings \
     cached across requests, invalidating only the functions whose IR \
     content hash changed."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      term_result
        (const run $ setup_logs_term $ model_term $ socket_term $ stdio_term
       $ watch_term $ once_term $ interval_term $ max_requests_term
       $ config_term $ domains_term
       $ metrics_json_term $ trace_out_term))

let main_cmd =
  let doc = "detect deep memory persistency bugs in NVM programs" in
  let info = Cmd.info "deepmc" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      check_cmd; check_mixed_cmd; explain_cmd; fix_cmd;
      crash_explore_cmd; recover_cmd; inject_cmd; fuzz_cmd; serve_cmd;
      fmt_cmd; dsg_cmd; cfg_cmd; trace_cmd; corpus_cmd; rules_cmd; stats_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
