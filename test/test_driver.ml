(* Tests for the toolkit driver, the report scoring, the PMTest-like
   baseline, and the synthetic-program generator's detection recall. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let buggy_src =
  {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  ret
}
|}

let test_driver_pipeline () =
  let prog = Nvmir.Parser.parse buggy_src in
  let d = Deepmc.Driver.make Analysis.Model.Strict in
  let report = Deepmc.Driver.analyze d ~entry:"main" prog in
  check Alcotest.int "one warning" 1 (List.length report.Deepmc.Driver.warnings);
  check Alcotest.int "one violation" 1
    (List.length (Deepmc.Driver.violations report));
  (match report.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_ok _ -> ()
  | Deepmc.Driver.Dynamic_skipped r -> Alcotest.fail ("dynamic skipped: " ^ r));
  check Alcotest.bool "static timing recorded" true
    (report.Deepmc.Driver.elapsed_static >= 0.)

let test_driver_no_entry_skips_dynamic () =
  let prog = Nvmir.Parser.parse buggy_src in
  let d = Deepmc.Driver.make Analysis.Model.Strict in
  let report = Deepmc.Driver.analyze d prog in
  match report.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_skipped _ -> ()
  | Deepmc.Driver.Dynamic_ok _ -> Alcotest.fail "expected dynamic skip"

let test_driver_dynamic_disabled () =
  let prog = Nvmir.Parser.parse buggy_src in
  let d = Deepmc.Driver.make ~run_dynamic:false Analysis.Model.Strict in
  let report = Deepmc.Driver.analyze d ~entry:"main" prog in
  match report.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_skipped _ -> ()
  | Deepmc.Driver.Dynamic_ok _ -> Alcotest.fail "expected dynamic disabled"

let test_driver_runtime_error_reported () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  store q->f, 1
  persist exact q->f
  ret
}
|}
  in
  let d = Deepmc.Driver.make Analysis.Model.Strict in
  let report = Deepmc.Driver.analyze d ~entry:"main" prog in
  match report.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_skipped reason ->
    check Alcotest.bool "mentions runtime error" true
      (String.length reason > 0)
  | Deepmc.Driver.Dynamic_ok _ -> Alcotest.fail "expected runtime failure"

(* A dynamic run that fails part-way keeps the warnings the checker
   stored before it stopped: they reach the report's dynamic tier, not
   only the merged list, so Explain still sees their witnesses. *)
let test_driver_failed_run_keeps_dynamic_warnings () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  epoch_end
  store q->f, 1
  ret
}
|}
  in
  Analysis.Witness.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Witness.set_enabled false)
  @@ fun () ->
  let d = Deepmc.Driver.make Analysis.Model.Epoch in
  let report = Deepmc.Driver.analyze d ~entry:"main" prog in
  (match report.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_skipped _ -> ()
  | Deepmc.Driver.Dynamic_ok _ -> Alcotest.fail "expected runtime failure");
  let unflushed (w : Analysis.Warning.t) =
    w.Analysis.Warning.rule = Analysis.Warning.Unflushed_write
  in
  check Alcotest.bool "dynamic tier keeps the unflushed write" true
    (List.exists unflushed report.Deepmc.Driver.dynamic_warnings);
  check Alcotest.bool "explain bundles it with a dynamic witness" true
    (List.exists
       (fun (b : Explain.bundle) ->
         List.exists
           (fun (e : Explain.evidence) ->
             e.Explain.ev_tier = "dynamic"
             && Option.fold ~none:false ~some:unflushed e.Explain.ev_warning)
           b.Explain.b_evidence)
       (Explain.build report))

(* The begin spans [f] traces, with telemetry on only around it. *)
let traced f =
  Obs.Span.reset ();
  Obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
  let names =
    List.filter_map
      (fun (e : Obs.Span.event) ->
        if e.ev_ph = Obs.Span.Begin then Some e.ev_name else None)
      (Obs.Span.events ())
  in
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  (r, names)

(* With a crash or recovery tier on, the dynamic checker rides on the
   one recorded execution both tiers read. Every tier's report must
   equal the tier run on its own: a plain dynamic run,
   [Crash_sweep.explore_program] and [Recover.verify], each executing
   the program afresh. A request with no roots runs no static tier (no
   report, no [dsa-build] span) and gives the same crash and recovery
   reports; one with [~corrupt:false] gives [Recover.verify
   ~corrupt:false]'s. Compared as JSON, witnesses on, over every corpus
   program and both recovery-corpus programs. *)
let test_driver_one_execution_equals_separate_tiers () =
  let module T = Corpus.Types in
  let module J = Deepmc.Json_report in
  Analysis.Witness.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Witness.set_enabled false)
  @@ fun () ->
  let json what name a b =
    check Alcotest.string (name ^ ": " ^ what) (J.to_string a) (J.to_string b)
  in
  let warnings ws = J.List (List.map J.of_warning ws) in
  let bound = 64 and seed = 5 in
  let recovered = ref 0 in
  List.iter
    (fun (p : T.program) ->
      let prog = T.parse p and model = T.model p and name = p.T.name in
      let entry = p.T.entry and args = p.T.entry_args in
      let analyze ?(run_dynamic = true) ?corrupt ~crash roots =
        Deepmc.Driver.analyze
          (Deepmc.Driver.make ~run_dynamic model)
          ~roots ~entry ~args ~clients:1 ~explore_crash_images:crash
          ~crash_bound:bound ~seed ~verify_recovery:true ?corrupt prog
      in
      let r, spans = traced (fun () -> analyze ~crash:true p.T.roots) in
      check Alcotest.bool (name ^ ": static tier traced") true
        (List.mem "dsa-build" spans);
      let pmem = Runtime.Pmem.create () in
      let checker = Runtime.Dynamic.create ~model () in
      Runtime.Dynamic.attach checker pmem;
      ignore (Runtime.Interp.run ~entry ~args (Runtime.Interp.create ~pmem prog));
      (match r.Deepmc.Driver.dynamic with
      | Deepmc.Driver.Dynamic_ok s ->
        json "dynamic summary" name (J.of_dynamic_summary s)
          (J.of_dynamic_summary (Runtime.Dynamic.summary checker))
      | Deepmc.Driver.Dynamic_skipped why -> Alcotest.fail (name ^ ": " ^ why));
      let dynamic = Runtime.Dynamic.warnings checker in
      json "dynamic warnings" name (warnings r.Deepmc.Driver.dynamic_warnings)
        (warnings dynamic);
      let crash =
        Deepmc.Crash_sweep.explore_program ~bound ~seed ~entry ~args prog
      in
      json "crash space" name
        (J.of_crash_space (Option.get r.Deepmc.Driver.crash_space))
        (J.of_crash_space crash);
      let recovery =
        Option.map
          (fun _ ->
            Recover.verify ~entry ~args ~recovery_entry:"recover" ~bound ~seed
              ~model prog)
          (Nvmir.Prog.find_func prog "recover")
      in
      let of_recovery = Option.fold ~none:J.Null ~some:J.of_recovery in
      json "recovery" name (of_recovery r.Deepmc.Driver.recovery)
        (of_recovery recovery);
      let no_static, spans = traced (fun () -> analyze ~crash:true []) in
      check Alcotest.bool (name ^ ": no static report") true
        (no_static.Deepmc.Driver.static = None);
      check Alcotest.bool (name ^ ": no dsa-build span") false
        (List.mem "dsa-build" spans);
      json "crash space, no roots" name
        (J.of_crash_space (Option.get r.Deepmc.Driver.crash_space))
        (J.of_crash_space (Option.get no_static.Deepmc.Driver.crash_space));
      json "recovery, no roots" name (of_recovery r.Deepmc.Driver.recovery)
        (of_recovery no_static.Deepmc.Driver.recovery);
      let pristine =
        analyze ~run_dynamic:false ~corrupt:false ~crash:false []
      in
      json "recovery, no corruption" name
        (of_recovery pristine.Deepmc.Driver.recovery)
        (of_recovery
           (Option.map
              (fun _ ->
                Recover.verify ~entry ~args ~recovery_entry:"recover" ~bound
                  ~seed ~corrupt:false ~model prog)
              (Nvmir.Prog.find_func prog "recover")));
      if recovery <> None then incr recovered;
      json "merged warnings" name (warnings r.Deepmc.Driver.warnings)
        (warnings
           (Analysis.Warning.sort
              (Analysis.Warning.dedup
                 (Deepmc.Driver.static_warnings r @ dynamic
                 @ Option.fold ~none:[]
                     ~some:(fun (rv : Recover.report) -> rv.Recover.warnings)
                     recovery)))))
    (Corpus.Registry.all @ Corpus.Recovery.programs);
  check Alcotest.int "both recovery-corpus programs ran recovery" 2 !recovered

(* A forward run that fails skips the crash and recovery tiers with the
   run's failure as their reason, the dynamic tier's reason, and keeps
   the dynamic warnings stored before the failure. *)
let test_driver_failed_run_skips_crash_tiers () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  epoch_end
  store q->f, 1
  ret
}
func recover() -> int {
entry:
  ret 0
}
|}
  in
  let d = Deepmc.Driver.make Analysis.Model.Epoch in
  let report =
    Deepmc.Driver.analyze d ~entry:"main" ~explore_crash_images:true
      ~verify_recovery:true prog
  in
  let reason =
    match report.Deepmc.Driver.dynamic with
    | Deepmc.Driver.Dynamic_skipped why -> why
    | Deepmc.Driver.Dynamic_ok _ -> Alcotest.fail "expected runtime failure"
  in
  let some = Alcotest.(option string) in
  check some "crash tier skipped with the run's reason" (Some reason)
    report.Deepmc.Driver.crash_skipped;
  check some "recovery tier skipped with the run's reason" (Some reason)
    report.Deepmc.Driver.recovery_skipped;
  check Alcotest.bool "no crash or recovery report" true
    (report.Deepmc.Driver.crash_space = None
    && report.Deepmc.Driver.recovery = None);
  check Alcotest.bool "dynamic warnings kept" true
    (report.Deepmc.Driver.dynamic_warnings <> [])

(* ------------------------------------------------------------------ *)
(* Report scoring *)

let test_report_scoring () =
  let e_hit =
    Deepmc.Report.expectation ~rule:Analysis.Warning.Unflushed_write
      ~file:"a.c" ~line:10 "real bug"
  in
  let e_miss =
    Deepmc.Report.expectation ~rule:Analysis.Warning.Multiple_flushes
      ~file:"a.c" ~line:20 "missed bug"
  in
  let e_benign =
    Deepmc.Report.expectation ~validated:false
      ~rule:Analysis.Warning.Flush_unmodified ~file:"a.c" ~line:30 "benign"
  in
  let w rule line =
    Analysis.Warning.make ~rule ~model:Analysis.Model.Strict
      ~loc:(Nvmir.Loc.make ~file:"a.c" ~line)
      ~fname:"f" "w"
  in
  let warnings =
    [
      w Analysis.Warning.Unflushed_write 10;
      w Analysis.Warning.Flush_unmodified 30;
      w Analysis.Warning.Durable_tx_no_writes 99;
    ]
  in
  let s = Deepmc.Report.score [ e_hit; e_miss; e_benign ] warnings in
  check Alcotest.int "matched" 2 (List.length s.Deepmc.Report.matched);
  check Alcotest.int "missed" 1 (List.length s.Deepmc.Report.missed);
  check Alcotest.int "unexpected" 1 (List.length s.Deepmc.Report.unexpected);
  check Alcotest.int "validated counts only real bugs" 1
    (Deepmc.Report.validated_count s);
  check Alcotest.int "warnings" 3 (Deepmc.Report.warning_count s);
  check Alcotest.int "false positives" 2 (Deepmc.Report.false_positive_count s);
  check (Alcotest.float 0.01) "recall" 0.5 (Deepmc.Report.recall s)

(* ------------------------------------------------------------------ *)
(* Baseline *)

let test_baseline_needs_annotations () =
  let prog = Nvmir.Parser.parse buggy_src in
  let none = Deepmc.Baseline.check ~annotated:[] prog in
  check Alcotest.int "unannotated functions unchecked" 0
    (List.length none.Deepmc.Baseline.warnings);
  let all = Deepmc.Baseline.check ~annotated:[ "main" ] prog in
  check Alcotest.int "annotated function checked" 1
    (List.length all.Deepmc.Baseline.warnings)

let test_baseline_misses_model_specific_bugs () =
  (* the Figure 1 semantic-gap bug needs model awareness the baseline
     lacks *)
  let src =
    {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  store p->g, 2
  persist exact p->g
  ret
}
|}
  in
  let prog = Nvmir.Parser.parse src in
  let b = Deepmc.Baseline.check ~annotated:[ "main" ] prog in
  check Alcotest.int "baseline silent" 0 (List.length b.Deepmc.Baseline.warnings);
  let full = Analysis.Checker.check ~model:Analysis.Model.Strict prog in
  check Alcotest.bool "DeepMC finds the mismatch" true
    (List.exists
       (fun (w : Analysis.Warning.t) ->
         w.Analysis.Warning.rule = Analysis.Warning.Semantic_mismatch)
       full.Analysis.Checker.warnings)

let test_baseline_annotation_burden () =
  let prog = Nvmir.Parser.parse buggy_src in
  check Alcotest.bool "annotation sites counted" true
    (Deepmc.Baseline.annotation_sites prog ~annotated:[ "main" ] >= 0)

(* ------------------------------------------------------------------ *)
(* Synthetic recall *)

let prop_seeded_bugs_are_found =
  QCheck.Test.make ~name:"checker finds every seeded bug" ~count:10
    QCheck.(map abs int)
    (fun seed ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 30;
          buggy_fraction_pct = 30 }
      in
      let prog, seeded = Corpus.Synth.generate cfg in
      let r =
        Analysis.Checker.check ~roots:(Corpus.Synth.roots cfg)
          ~model:Analysis.Model.Strict prog
      in
      (* each seeded defect produces at least one warning; clean
         programs produce none *)
      if seeded = 0 then r.Analysis.Checker.warnings = []
      else List.length r.Analysis.Checker.warnings >= seeded)

let prop_clean_synth_is_silent =
  QCheck.Test.make ~name:"clean generated programs produce no warnings"
    ~count:15
    QCheck.(map abs int)
    (fun seed ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 20;
          buggy_fraction_pct = 0 }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      let r =
        Analysis.Checker.check ~roots:(Corpus.Synth.roots cfg)
          ~model:Analysis.Model.Strict prog
      in
      r.Analysis.Checker.warnings = [])

let suite =
  [
    tc "driver: full pipeline" `Quick test_driver_pipeline;
    tc "driver: no entry skips dynamic" `Quick test_driver_no_entry_skips_dynamic;
    tc "driver: dynamic disabled" `Quick test_driver_dynamic_disabled;
    tc "driver: runtime errors surfaced" `Quick
      test_driver_runtime_error_reported;
    tc "driver: failed run keeps dynamic warnings" `Quick
      test_driver_failed_run_keeps_dynamic_warnings;
    tc "driver: one execution = tiers run separately" `Quick
      test_driver_one_execution_equals_separate_tiers;
    tc "driver: failed run skips crash tiers" `Quick
      test_driver_failed_run_skips_crash_tiers;
    tc "report: scoring" `Quick test_report_scoring;
    tc "baseline: annotation-driven" `Quick test_baseline_needs_annotations;
    tc "baseline: misses model-specific bugs" `Quick
      test_baseline_misses_model_specific_bugs;
    tc "baseline: annotation burden" `Quick test_baseline_annotation_burden;
    QCheck_alcotest.to_alcotest prop_seeded_bugs_are_found;
    QCheck_alcotest.to_alcotest prop_clean_synth_is_silent;
  ]
