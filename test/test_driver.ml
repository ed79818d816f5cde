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
    tc "report: scoring" `Quick test_report_scoring;
    tc "baseline: annotation-driven" `Quick test_baseline_needs_annotations;
    tc "baseline: misses model-specific bugs" `Quick
      test_baseline_misses_model_specific_bugs;
    tc "baseline: annotation burden" `Quick test_baseline_annotation_burden;
    QCheck_alcotest.to_alcotest prop_seeded_bugs_are_found;
    QCheck_alcotest.to_alcotest prop_clean_synth_is_silent;
  ]
