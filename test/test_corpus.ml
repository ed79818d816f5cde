(* The key regression suite: every corpus program's checker output
   matches the paper's ground truth exactly — the right rules at the
   right file:line coordinates, nothing missed, nothing extra — and the
   aggregate counts reproduce Tables 1, 2 and 8. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let test_program (p : Corpus.Types.program) () =
  let prog = Corpus.Types.parse p in
  check Alcotest.(list string) "program validates" []
    (List.map (Fmt.str "%a" Nvmir.Prog.pp_error) (Nvmir.Prog.validate prog));
  let _, score = Corpus.Registry.analyze p in
  check Alcotest.int
    (Fmt.str "%s: no missed expectations" p.Corpus.Types.name)
    0
    (List.length score.Deepmc.Report.missed);
  check Alcotest.int
    (Fmt.str "%s: no unexpected warnings" p.Corpus.Types.name)
    0
    (List.length score.Deepmc.Report.unexpected)

let per_program_tests =
  List.map
    (fun (p : Corpus.Types.program) ->
      tc ("ground truth: " ^ p.Corpus.Types.name) `Quick (test_program p))
    Corpus.Registry.all

let test_table1_totals () =
  let totals = Corpus.Registry.table1 () in
  let by_fw fw =
    List.find
      (fun t -> t.Corpus.Registry.framework = fw)
      totals
  in
  let expect fw v w =
    let t = by_fw fw in
    check Alcotest.(pair int int)
      (Corpus.Types.framework_name fw)
      (v, w)
      (t.Corpus.Registry.validated, t.Corpus.Registry.warnings)
  in
  expect Corpus.Types.Pmdk 23 25;
  expect Corpus.Types.Nvm_direct 7 8;
  expect Corpus.Types.Pmfs 9 11;
  expect Corpus.Types.Mnemosyne 4 4

(* every cell of the paper's Table 1, as (rule, [PMDK; NVM-Direct; PMFS;
   Mnemosyne]) with validated/warnings pairs *)
let paper_table1 =
  let open Analysis.Warning in
  [
    (Multiple_writes_at_once, [ (0, 0); (0, 0); (1, 1); (0, 0) ]);
    (Unflushed_write, [ (1, 2); (1, 1); (0, 0); (1, 1) ]);
    (Missing_persist_barrier, [ (2, 2); (2, 2); (0, 0); (0, 0) ]);
    (Missing_barrier_nested_tx, [ (0, 0); (0, 0); (1, 1); (0, 0) ]);
    (Semantic_mismatch, [ (6, 7); (0, 0); (0, 1); (0, 0) ]);
    (Strand_dependence, [ (0, 0); (0, 0); (0, 0); (0, 0) ]);
    (Multiple_flushes, [ (3, 3); (1, 1); (3, 3); (1, 1) ]);
    (Flush_unmodified, [ (3, 3); (2, 3); (4, 5); (0, 0) ]);
    (Persist_same_object_in_tx, [ (3, 3); (0, 0); (0, 0); (2, 2) ]);
    (Durable_tx_no_writes, [ (5, 5); (1, 1); (0, 0); (0, 0) ]);
  ]

let test_table1_every_cell () =
  let totals = Corpus.Registry.table1 () in
  let frameworks =
    [ Corpus.Types.Pmdk; Corpus.Types.Nvm_direct; Corpus.Types.Pmfs;
      Corpus.Types.Mnemosyne ]
  in
  List.iter
    (fun (rule, cells) ->
      List.iter2
        (fun fw expected ->
          let t =
            List.find (fun t -> t.Corpus.Registry.framework = fw) totals
          in
          let got =
            Option.value ~default:(0, 0)
              (List.assoc_opt rule t.Corpus.Registry.per_rule)
          in
          check
            Alcotest.(pair int int)
            (Fmt.str "%s / %s"
               (Analysis.Warning.rule_name rule)
               (Corpus.Types.framework_name fw))
            expected got)
        frameworks cells)
    paper_table1

let test_studied_bug_counts () =
  (* Table 2 *)
  let studied = Corpus.Registry.studied_bugs () in
  check Alcotest.int "19 studied bugs" 19 (List.length studied);
  let violations =
    List.filter (fun (_, e, _) -> Corpus.Registry.is_violation e) studied
  in
  check Alcotest.int "9 violations" 9 (List.length violations);
  check Alcotest.int "10 performance" 10
    (List.length studied - List.length violations)

let test_new_bug_counts () =
  (* Table 8 and the 5.1 static/dynamic split *)
  let news = Corpus.Registry.new_bugs () in
  check Alcotest.int "24 new bugs" 24 (List.length news);
  let dynamic =
    List.filter (fun (_, _, d) -> d = Corpus.Types.Dynamic_analysis) news
  in
  check Alcotest.int "6 found dynamically" 6 (List.length dynamic)

let test_false_positive_rate () =
  (* the offset lattice resolved 5 of the 7 pointer-arithmetic benign
     warnings of §5.4 and surfaced 3 new benign performance warnings at
     the now-visible whole-object write-backs *)
  let benign = Corpus.Registry.benign_patterns () in
  check Alcotest.int "5 expected false positives" 5 (List.length benign);
  let totals = Corpus.Registry.table1 () in
  let w = List.fold_left (fun a t -> a + t.Corpus.Registry.warnings) 0 totals in
  check Alcotest.int "5 benign out of 48 warnings" 48 w

let test_dynamic_discovery_bugs_and_offset_lattice () =
  (* the six dynamically-discovered bugs all hide behind pointer
     arithmetic: the offset-aware static checker now finds every one of
     them, while ablating the offset lattice restores the historical
     static blind spot (only the instrumented execution sees them) *)
  List.iter
    (fun (p : Corpus.Types.program) ->
      let dyn_expectations =
        List.filter
          (fun ((e : Deepmc.Report.expectation), d) ->
            d = Corpus.Types.Dynamic_analysis && e.Deepmc.Report.validated)
          p.Corpus.Types.expectations
      in
      if dyn_expectations <> [] then begin
        let _, offset_score = Corpus.Registry.analyze ~run_dynamic:false p in
        let _, ablated_score =
          Corpus.Registry.analyze
            ~config:{ Analysis.Config.default with offset_sensitive = false }
            ~run_dynamic:false p
        in
        List.iter
          (fun ((e : Deepmc.Report.expectation), _) ->
            let matched_in (s : Deepmc.Report.score) =
              List.exists (fun (e', _) -> e' = e) s.Deepmc.Report.matched
            in
            if not (matched_in offset_score) then
              Alcotest.fail
                (Fmt.str
                   "%s:%d should be found by the offset-aware static checker"
                   e.Deepmc.Report.file e.Deepmc.Report.line);
            if matched_in ablated_score then
              Alcotest.fail
                (Fmt.str
                   "%s:%d should be invisible to the offset-ablated static \
                    checker"
                   e.Deepmc.Report.file e.Deepmc.Report.line))
          dyn_expectations
      end)
    Corpus.Registry.all

let test_corpus_programs_run () =
  (* every corpus program's driver executes without runtime errors *)
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      let pmem = Runtime.Pmem.create () in
      let interp = Runtime.Interp.create ~pmem prog in
      match
        Runtime.Interp.run ~entry:p.Corpus.Types.entry
          ~args:p.Corpus.Types.entry_args interp
      with
      | _ -> ()
      | exception e ->
        Alcotest.fail
          (Fmt.str "%s failed to run: %s" p.Corpus.Types.name
             (Printexc.to_string e)))
    Corpus.Registry.all

let test_fixed_variants_are_clean () =
  (* every fixed variant must produce no validated-bug warnings at the
     ground-truth locations (the fix removes the bug) *)
  List.iter
    (fun (p : Corpus.Types.program) ->
      match Corpus.Types.parse_fixed p with
      | None -> ()
      | Some fixed ->
        let result =
          Analysis.Checker.check ~model:(Corpus.Types.model p) fixed
        in
        List.iter
          (fun (w : Analysis.Warning.t) ->
            if
              List.exists
                (fun ((e : Deepmc.Report.expectation), _) ->
                  e.Deepmc.Report.validated
                  && e.Deepmc.Report.rule = w.Analysis.Warning.rule
                  && e.Deepmc.Report.file = w.Analysis.Warning.loc.Nvmir.Loc.file
                  && e.Deepmc.Report.line = w.Analysis.Warning.loc.Nvmir.Loc.line)
                p.Corpus.Types.expectations
            then
              Alcotest.fail
                (Fmt.str "%s fixed variant still warns at %a"
                   p.Corpus.Types.name Nvmir.Loc.pp w.Analysis.Warning.loc))
          result.Analysis.Checker.warnings)
    Corpus.Registry.all

let test_frameworks_have_right_models () =
  check Alcotest.bool "PMDK strict" true
    (Corpus.Types.framework_model Corpus.Types.Pmdk = Analysis.Model.Strict);
  check Alcotest.bool "NVM-Direct strict" true
    (Corpus.Types.framework_model Corpus.Types.Nvm_direct = Analysis.Model.Strict);
  check Alcotest.bool "PMFS epoch" true
    (Corpus.Types.framework_model Corpus.Types.Pmfs = Analysis.Model.Epoch);
  check Alcotest.bool "Mnemosyne epoch" true
    (Corpus.Types.framework_model Corpus.Types.Mnemosyne = Analysis.Model.Epoch)

let test_registry_find () =
  check Alcotest.bool "find existing" true
    (Corpus.Registry.find "btree_map" <> None);
  check Alcotest.bool "find missing" true (Corpus.Registry.find "nope" = None);
  check Alcotest.int "18 corpus programs" 18 (List.length Corpus.Registry.all)

let suite =
  per_program_tests
  @ [
      tc "Table 1 totals" `Quick test_table1_totals;
      tc "Table 1 every cell" `Quick test_table1_every_cell;
      tc "Table 2: studied-bug counts" `Quick test_studied_bug_counts;
      tc "Table 8: new-bug counts" `Quick test_new_bug_counts;
      tc "false-positive rate (5.4)" `Quick test_false_positive_rate;
      tc "dynamic-discovery bugs vs the offset lattice" `Quick
        test_dynamic_discovery_bugs_and_offset_lattice;
      tc "all corpus programs execute" `Quick test_corpus_programs_run;
      tc "fixed variants are clean" `Quick test_fixed_variants_are_clean;
      tc "framework models" `Quick test_frameworks_have_right_models;
      tc "registry lookup" `Quick test_registry_find;
    ]
