(* The injection subsystem: mutants must be well-formed IR (every one
   pretty-prints and re-parses to an equal program), and each one must
   be repairable — Autofix.fix_until_clean converges back to zero
   warnings on single-operator mutants of warning-clean programs. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let synth_clean seed =
  let cfg =
    {
      Corpus.Synth.default_config with
      Corpus.Synth.seed;
      nfuncs = 6;
      buggy_fraction_pct = 0;
    }
  in
  let prog, _ = Corpus.Synth.generate cfg in
  (prog, Corpus.Synth.roots cfg)

let synth_mutants seed =
  let prog, roots = synth_clean seed in
  ( Inject.Mutation.mutate
      ~base:(Fmt.str "synth%d" seed)
      ~model:Analysis.Model.Strict ~roots prog,
    roots )

(* ------------------------------------------------------------------ *)
(* Property: pp -> parse -> pp is the identity on every mutant (the
   saved false-negative corpus must round-trip through the parser). *)

let prop_mutants_roundtrip =
  QCheck.Test.make ~name:"every mutant pretty-prints and re-parses"
    ~count:30
    QCheck.(map abs small_int)
    (fun seed ->
      let mutants, _ = synth_mutants seed in
      List.for_all
        (fun (m : Inject.Mutation.mutant) ->
          let printed = Fmt.str "%a" Nvmir.Prog.pp m.Inject.Mutation.prog in
          let reparsed = Nvmir.Parser.parse printed in
          let printed' = Fmt.str "%a" Nvmir.Prog.pp reparsed in
          if not (String.equal printed printed') then
            QCheck.Test.fail_reportf "mutant %s does not round-trip"
              m.Inject.Mutation.id
          else true)
        mutants)

(* ------------------------------------------------------------------ *)
(* Property: the autofixer undoes any single injected bug — running
   fix_until_clean on a mutant of a warning-clean program converges to
   zero static warnings. *)

(* Hoist_write is excluded: the autofixer repairs by inserting flushes
   and fences, which covers the orphaned write, but it cannot move the
   write back into its original persist unit — the knock-on
   semantic-mismatch (split atomic update) has no mechanical fix, so
   ~60% of hoist mutants keep one warning by design. *)
let autofixable_operators =
  List.filter
    (fun op -> op <> Inject.Mutation.Hoist_write)
    Inject.Mutation.all_operators

let prop_mutants_autofixable =
  QCheck.Test.make ~name:"fix_until_clean converges on single-op mutants"
    ~count:15
    QCheck.(map abs small_int)
    (fun seed ->
      let prog, roots = synth_clean seed in
      let mutants =
        Inject.Mutation.mutate ~operators:autofixable_operators
          ~base:(Fmt.str "synth%d" seed)
          ~model:Analysis.Model.Strict ~roots prog
      in
      List.for_all
        (fun (m : Inject.Mutation.mutant) ->
          let _, _, remaining =
            Deepmc.Autofix.fix_until_clean ~roots
              ~model:Analysis.Model.Strict m.Inject.Mutation.prog
          in
          if remaining <> [] then
            QCheck.Test.fail_reportf
              "mutant %s: %d warning(s) survive the autofixer"
              m.Inject.Mutation.id (List.length remaining)
          else true)
        mutants)

(* ------------------------------------------------------------------ *)
(* Directed: the acceptance bar — static-tier recall on the PMDK corpus
   slice — and matrix determinism for a fixed seed. *)

let test_pmdk_static_recall () =
  let bases = Inject.Evaluate.corpus_bases ~framework:Corpus.Types.Pmdk () in
  let s = Inject.Evaluate.run ~dynamic:false ~crash:false bases in
  check Alcotest.bool "mutants generated" true (s.Inject.Evaluate.total_mutants > 0);
  check (Alcotest.float 0.0001) "static-tier recall" 1.0
    s.Inject.Evaluate.static_tier_recall

let test_matrix_deterministic () =
  let run () =
    let bases =
      Inject.Evaluate.corpus_bases ~framework:Corpus.Types.Pmfs ()
      @ Inject.Evaluate.exemplar_bases ()
    in
    Fmt.str "%a" Deepmc.Json_report.pp
      (Inject.Evaluate.to_json (Inject.Evaluate.run ~seed:42 bases))
  in
  check Alcotest.string "same seed, same matrix" (run ()) (run ())

(* Exemplar sanity: the strand exemplar yields split-strand mutants and
   the dynamic checker observes the injected race. *)
let test_split_strand_detected () =
  let bases = Inject.Evaluate.exemplar_bases () in
  let s =
    Inject.Evaluate.run ~operators:[ Inject.Mutation.Split_strand ]
      ~crash:false bases
  in
  let row =
    List.find
      (fun (r : Inject.Evaluate.row) ->
        r.Inject.Evaluate.operator = Inject.Mutation.Split_strand)
      s.Inject.Evaluate.rows
  in
  check Alcotest.bool "split-strand sites found" true
    (row.Inject.Evaluate.mutants > 0);
  check Alcotest.int "dynamic checker sees every race"
    row.Inject.Evaluate.dynamic_c.Inject.Evaluate.applicable
    row.Inject.Evaluate.dynamic_c.Inject.Evaluate.detected

(* ------------------------------------------------------------------ *)
(* Directed: the 10 resurrected blind-spot mutants. Under the ablated
   (legacy) pipeline the pointer-arith fence mutants are static-tier
   false negatives; re-checking the very same mutant programs with the
   offset lattice enabled catches every one, with the exact warning
   pinned (mutant id, rule, location, message). *)

let resurrected_pins =
  let mpb = "missing-persist-barrier" in
  let msg =
    "epoch ends without a persist barrier; stores of the next epoch may \
     persist before this epoch's stores"
  in
  [
    ("pmfs_journal/delete-fence/1", mpb, "journal.c:655", msg);
    ("pmfs_journal/reorder-fence/1", mpb, "journal.c:655", msg);
    ("pmfs_super/delete-fence/0", mpb, "super.c:581", msg);
    ("pmfs_super/reorder-fence/0", mpb, "super.c:581", msg);
    ("chhash/delete-fence/0", mpb, "chhash.c:190", msg);
    ("chhash/reorder-fence/0", mpb, "chhash.c:190", msg);
    ("chhash/delete-fence/1", mpb, "chhash.c:275", msg);
    ("chhash/reorder-fence/1", mpb, "chhash.c:275", msg);
    ("chash/delete-fence/0", mpb, "CHash.c:153", msg);
    ("chash/reorder-fence/0", mpb, "CHash.c:153", msg);
  ]

let test_resurrected_blind_spot_mutants () =
  let bases =
    let config = { Analysis.Config.default with offset_sensitive = false } in
    Inject.Evaluate.corpus_bases ~config ()
    @ Inject.Evaluate.exemplar_bases ~config ()
  in
  let s =
    Inject.Evaluate.run
      ~operators:
        [ Inject.Mutation.Delete_fence; Inject.Mutation.Reorder_fence ]
      ~dynamic:false ~crash:false bases
  in
  let fns = List.filter Inject.Evaluate.is_known_blind_spot s.Inject.Evaluate.results in
  check Alcotest.int "10 legacy blind-spot false negatives" 10
    (List.length fns);
  let caught =
    List.concat_map
      (fun (r : Inject.Evaluate.mutant_result) ->
        let m = r.Inject.Evaluate.mutant in
        let b =
          List.find
            (fun (b : Inject.Evaluate.base) ->
              b.Inject.Evaluate.bname = m.Inject.Mutation.base)
            bases
        in
        let res =
          Analysis.Checker.check ~model:m.Inject.Mutation.model
            ~roots:b.Inject.Evaluate.roots m.Inject.Mutation.prog
        in
        List.map
          (fun (w : Analysis.Warning.t) ->
            ( m.Inject.Mutation.id,
              Analysis.Warning.rule_name w.Analysis.Warning.rule,
              Fmt.str "%a" Nvmir.Loc.pp w.Analysis.Warning.loc,
              w.Analysis.Warning.message ))
          (List.filter
             (Inject.Mutation.expect_matches
                m.Inject.Mutation.truth.Inject.Mutation.primary)
             res.Analysis.Checker.warnings))
      fns
  in
  let quad =
    Alcotest.(list (pair string (pair string (pair string string))))
  in
  let nest = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  check quad "offset-aware checker catches all 10 with pinned warnings"
    (nest resurrected_pins) (nest caught)

(* ------------------------------------------------------------------ *)
(* Directed: the recovery column. The corruption operators damage the
   backward path, so only the recovery tier sees them: every mutant is a
   recovery hit and none a static hit, and the CRC-guarded base verifies
   clean while its unguarded twin does not. *)

let test_recovery_column () =
  let s =
    Inject.Evaluate.run ~operators:Inject.Evaluate.recovery_operators
      (Inject.Evaluate.recovery_bases ())
  in
  let results = s.Inject.Evaluate.results in
  let count f = List.length (List.filter f results) in
  check Alcotest.int "three recovery mutants" 3 (List.length results);
  check Alcotest.int "every recovery cell hits" 3
    (count (fun r -> r.Inject.Evaluate.recovery_d.Inject.Evaluate.hit));
  check Alcotest.int "no static-column hit" 0
    (count (fun r -> r.Inject.Evaluate.static_d.Inject.Evaluate.hit));
  check Alcotest.int "no false negatives" 0
    (List.length (Inject.Evaluate.false_negatives s));
  let clean name =
    Recover.consistent (List.assoc name s.Inject.Evaluate.bases_verified)
  in
  check Alcotest.bool "guarded base verifies clean" true
    (clean Corpus.Recovery.guarded.Corpus.Types.name);
  check Alcotest.bool "unguarded base does not" false
    (clean Corpus.Recovery.unguarded.Corpus.Types.name)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mutants_roundtrip;
    QCheck_alcotest.to_alcotest prop_mutants_autofixable;
    tc "pmdk static-tier recall = 1.0" `Quick test_pmdk_static_recall;
    tc "matrix deterministic for fixed seed" `Quick test_matrix_deterministic;
    tc "split-strand races observed dynamically" `Quick
      test_split_strand_detected;
    tc "resurrected blind-spot mutants caught with offsets" `Quick
      test_resurrected_blind_spot_mutants;
    tc "recovery column detects every corruption mutant" `Quick
      test_recovery_column;
  ]
