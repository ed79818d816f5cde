(* Tests for fanning work out over the shared domain pool: [Pool.map]
   itself, and whole-program checks run as pool jobs. *)

let tc = Alcotest.test_case
let check = Alcotest.check
let pmap ?domains f items = Pool.map ?domains (Pool.default ()) f items

let test_map_preserves_order () =
  let items = List.init 100 Fun.id in
  check
    Alcotest.(list int)
    "order kept"
    (List.map (fun x -> x * x) items)
    (pmap ~domains:4 (fun x -> x * x) items)

let test_map_edge_cases () =
  check Alcotest.(list int) "empty" [] (pmap (fun x -> x) []);
  check Alcotest.(list int) "single" [ 7 ]
    (pmap ~domains:8 (fun x -> x) [ 7 ]);
  check Alcotest.(list int) "one domain" [ 1; 2; 3 ]
    (pmap ~domains:1 Fun.id [ 1; 2; 3 ])

let test_map_more_domains_than_items () =
  check Alcotest.(list int) "domains capped to items" [ 2; 4 ]
    (pmap ~domains:16 (fun x -> x * 2) [ 1; 2 ])

(* a raising worker must propagate the exception from the join, not
   leave spawned domains hanging or return partial results *)
let test_map_propagates_exceptions () =
  let boom x = if x = 37 then failwith "boom" else x in
  let items = List.init 100 Fun.id in
  (match pmap ~domains:4 boom items with
  | _ -> Alcotest.fail "expected the worker's exception"
  | exception Failure m -> check Alcotest.string "original message" "boom" m);
  (* the single-domain path raises too *)
  match pmap ~domains:1 boom items with
  | _ -> Alcotest.fail "expected the worker's exception (1 domain)"
  | exception Failure m -> check Alcotest.string "original message" "boom" m

(* after a failure the pool is fully joined, so the next map works *)
let test_map_usable_after_failure () =
  (try
     ignore
       (pmap ~domains:4
          (fun x -> if x = 5 then raise Exit else x)
          (List.init 50 Fun.id))
   with Exit -> ());
  check
    Alcotest.(list int)
    "subsequent map is unaffected" [ 2; 4; 6 ]
    (pmap ~domains:4 (fun x -> x * 2) [ 1; 2; 3 ])

let corpus_jobs () =
  List.map
    (fun (p : Corpus.Types.program) ->
      (Corpus.Types.model p, Corpus.Types.parse p, p.Corpus.Types.roots))
    Corpus.Registry.all

let warning_count (model, prog, roots) =
  List.length
    (Analysis.Checker.check ~roots ~model prog).Analysis.Checker.warnings

let test_check_fanout_matches_sequential () =
  let jobs = corpus_jobs () in
  check
    Alcotest.(list int)
    "same results"
    (List.map warning_count jobs)
    (pmap ~domains:4 warning_count jobs)

let test_check_fanout_total_static_warnings () =
  (* the static side of Table 1: all 48 warnings — the offset lattice
     made the historically dynamic-only catches statically visible *)
  check Alcotest.int "48 static warnings" 48
    (List.fold_left ( + ) 0 (pmap ~domains:4 warning_count (corpus_jobs ())))

(* The checker's answer does not depend on the pool size: the corpus and
   three 80-function synth programs give the same warnings and the same
   trace, event and peak-path counts at 1 domain and at 4. *)
let test_check_domain_count_invariant () =
  let synth_jobs =
    List.map
      (fun seed ->
        let cfg = { Corpus.Synth.default_config with nfuncs = 80; seed } in
        (Analysis.Model.Strict, fst (Corpus.Synth.generate cfg),
         Corpus.Synth.roots cfg))
      [ 21; 22; 23 ]
  in
  let sweep domains =
    Pool.set_default_size domains;
    List.map
      (fun (model, prog, roots) ->
        let r = Analysis.Checker.check ~roots ~model prog in
        ( List.map (Fmt.str "%a" Analysis.Warning.pp) r.Analysis.Checker.warnings,
          r.Analysis.Checker.trace_count,
          r.Analysis.Checker.event_count,
          r.Analysis.Checker.peak_paths ))
      (corpus_jobs () @ synth_jobs)
  in
  let saved = Pool.default_size () in
  let one, four =
    Fun.protect
      ~finally:(fun () -> Pool.set_default_size saved)
      (fun () -> (sweep 1, sweep 4))
  in
  List.iteri
    (fun i ((w1, t1, e1, p1), (w4, t4, e4, p4)) ->
      let job what = Fmt.str "job %d: %s" i what in
      check Alcotest.(list string) (job "warnings") w1 w4;
      check Alcotest.int (job "traces") t1 t4;
      check Alcotest.int (job "events") e1 e4;
      check Alcotest.int (job "peak paths") p1 p4)
    (List.combine one four)

let suite =
  [
    tc "map: preserves order" `Quick test_map_preserves_order;
    tc "map: edge cases" `Quick test_map_edge_cases;
    tc "map: domains capped" `Quick test_map_more_domains_than_items;
    tc "map: worker exception propagates" `Quick
      test_map_propagates_exceptions;
    tc "map: pool usable after a failure" `Quick test_map_usable_after_failure;
    tc "check fan-out: matches sequential" `Quick
      test_check_fanout_matches_sequential;
    tc "check fan-out: static warnings" `Quick
      test_check_fanout_total_static_warnings;
    tc "check: results independent of the domain count" `Quick
      test_check_domain_count_invariant;
  ]
