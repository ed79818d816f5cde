(* Reference differential tests: the trace walker must enumerate
   exactly the traces of the naive enumerator in [Ref_trace] —
   same traces, same order — and the checker must report exactly the
   warnings the reference rules ([Ref_rules]) give over those traces;
   plus behavioural tests for the persistent domain pool. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let warning_strings ws = List.map (Fmt.str "%a" Analysis.Warning.pp) ws

let streamed ?config prog roots =
  List.map
    (fun (src : Analysis.Trace.source) ->
      (src.Analysis.Trace.root, List.of_seq src.Analysis.Trace.traces))
    (Analysis.Trace.stream ?config ~roots (Dsa.Dsg.build prog) prog)

(* The checker's warnings, recomputed the plain way: every rule of the
   reference evaluator over every reference trace, root by root,
   deduplicated and sorted. *)
let reference_warnings ~model prog per_root =
  let ctx =
    { Analysis.Rules.model; dsg = Dsa.Dsg.build prog; tenv = Nvmir.Prog.tenv prog }
  in
  List.concat_map
    (fun (_, ts) ->
      List.concat_map
        (fun t -> Ref_rules.run_all ctx (Analysis.Rules.scope_trace t))
        ts)
    per_root
  |> Analysis.Warning.dedup |> Analysis.Warning.sort

(* Stream = reference on [roots], trace for trace; then the checker's
   warnings and counts match the reference's under [models]. *)
let agrees ?(config = Analysis.Config.default) ~models prog roots =
  let reference =
    Ref_trace.collect ~config (Dsa.Dsg.build prog) prog roots
  in
  reference = streamed ~config prog roots
  && List.for_all
       (fun model ->
         let r = Analysis.Checker.check ~config ~roots ~model prog in
         let traces = List.concat_map snd reference in
         warning_strings r.Analysis.Checker.warnings
         = warning_strings (reference_warnings ~model prog reference)
         && r.Analysis.Checker.trace_count = List.length traces
         && r.Analysis.Checker.event_count
            = List.fold_left (fun n t -> n + Analysis.Trace.length t) 0 traces)
       models

(* Every corpus function as a root: the scenario drivers, the callees
   they reach, and the functions on call cycles. *)
let corpus_roots () =
  List.map
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      (p, prog, Nvmir.Prog.func_names prog))
    Corpus.Registry.all

(* Warnings and counts on every corpus root. *)
let test_corpus_warning_sets () =
  let programs = corpus_roots () in
  List.iter
    (fun ((p : Corpus.Types.program), prog, roots) ->
      let model = Corpus.Types.model p in
      let r = Analysis.Checker.check ~roots ~model prog in
      let reference = Ref_trace.collect (Dsa.Dsg.build prog) prog roots in
      let traces = List.concat_map snd reference in
      check
        Alcotest.(list string)
        (p.Corpus.Types.name ^ " warning set")
        (warning_strings (reference_warnings ~model prog reference))
        (warning_strings r.Analysis.Checker.warnings);
      check Alcotest.int
        (p.Corpus.Types.name ^ " trace count")
        (List.length traces) r.Analysis.Checker.trace_count;
      check Alcotest.int
        (p.Corpus.Types.name ^ " event count")
        (List.fold_left (fun n t -> n + Analysis.Trace.length t) 0 traces)
        r.Analysis.Checker.event_count)
    programs

(* Trace-level equality on every corpus root. *)
let test_corpus_trace_streams () =
  List.iter
    (fun ((p : Corpus.Types.program), prog, roots) ->
      let reference = Ref_trace.collect (Dsa.Dsg.build prog) prog roots in
      List.iter2
        (fun (root, expected) (root', got) ->
          check Alcotest.string "root order" root root';
          if expected <> got then
            Alcotest.failf "%s/%s: %d reference vs %d streamed traces"
              p.Corpus.Types.name root (List.length expected)
              (List.length got))
        reference (streamed prog roots))
    (corpus_roots ())

(* The scoping state is persistent: feeding a shared prefix once and
   forking it into two sibling suffixes gives each sibling the warnings
   of feeding its whole path from the start. *)
let test_incremental_rules_agree () =
  let rec split_common a b =
    match (a, b) with
    | x :: a', y :: b' when x = y ->
      let prefix, a, b = split_common a' b' in
      (x :: prefix, a, b)
    | _ -> ([], a, b)
  in
  List.iter
    (fun ((p : Corpus.Types.program), prog, roots) ->
      let ctx =
        {
          Analysis.Rules.model = Corpus.Types.model p;
          dsg = Dsa.Dsg.build prog;
          tenv = Nvmir.Prog.tenv prog;
        }
      in
      let open Analysis.Rules.Incremental in
      let rendered st = warning_strings (finish ctx st) in
      List.iter
        (fun (_, traces) ->
          List.iteri
            (fun i t ->
              (* fork against the previous sibling *)
              let sib = if i = 0 then t else List.nth traces (i - 1) in
              let prefix, rest, sib_rest = split_common t sib in
              let shared = feed start prefix in
              let whole = feed start t in
              check
                Alcotest.(list string)
                (p.Corpus.Types.name ^ " forked path")
                (rendered whole) (rendered (feed shared rest));
              check
                Alcotest.(list string)
                (p.Corpus.Types.name ^ " forked sibling")
                (rendered (feed start sib)) (rendered (feed shared sib_rest)))
            traces)
        (Ref_trace.collect (Dsa.Dsg.build prog) prog roots))
    (corpus_roots ())

(* Recursive programs, every function a root: the bounded unrolling of
   call cycles matches the reference's, under the default caps and
   under caps small enough to cut the cyclic tables. *)
let test_recursive_roots () =
  let small =
    { Analysis.Config.default with max_paths = 4; expansion_fanout = 2 }
  in
  List.iter
    (fun (what, src) ->
      let prog = Nvmir.Parser.parse src in
      List.iter
        (fun (caps, config) ->
          if
            not
              (agrees ~config ~models:Analysis.Model.all prog
                 (Nvmir.Prog.func_names prog))
          then Alcotest.failf "%s, %s caps: stream differs from reference" what caps)
        [ ("default", Analysis.Config.default); ("small", small) ])
    [
      ("recursion bounded", Test_trace.recursion_src);
      ("cyclic root", Test_rules_oracle.cyclic_src);
    ]

let synth_gen ~nfuncs =
  QCheck.make
    ~print:(fun (seed, nfuncs, buggy) ->
      Printf.sprintf "seed=%d nfuncs=%d buggy=%d%%" seed nfuncs buggy)
    QCheck.Gen.(triple (int_bound 1000) nfuncs (int_bound 100))

let synth_agrees ?config ~models (seed, nfuncs, buggy_fraction_pct) =
  let cfg =
    { Corpus.Synth.default_config with seed; nfuncs; buggy_fraction_pct }
  in
  let prog, _ = Corpus.Synth.generate cfg in
  agrees ?config ~models prog (Nvmir.Prog.func_names prog)

(* QCheck: on generated programs of varying shape, with every function
   as a root (the never-called [main] and the callees it walks into),
   the stream equals the reference and the checker's warnings
   equal the rules over the reference traces. [main] calls every
   driver, so its thousands-of-events paths reach the default path cap;
   one model keeps the rules' share of the time small. *)
let test_qcheck_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"stream = reference (synth)"
       (synth_gen ~nfuncs:(QCheck.Gen.int_range 2 12))
       (synth_agrees ~models:[ Analysis.Model.Strict ]))

(* The same with caps small enough to fire on most workers and drivers:
   a worker with a branch and two helper calls already has more than 4
   merged paths. *)
let test_qcheck_reference_small_caps =
  let config =
    { Analysis.Config.default with max_paths = 4; expansion_fanout = 2 }
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"stream = reference, small caps (synth)"
       (synth_gen ~nfuncs:(QCheck.Gen.int_range 4 20))
       (synth_agrees ~config ~models:[ Analysis.Model.Strict ]))

(* The walk holds fewer live frames than the paths it checks on a
   branchy program: paths exist one at a time, as a branch of the walk. *)
let branchy_source =
  String.concat "\n"
    ([ "struct s { a: int, b: int, c: int, d: int, e: int, f: int }";
       "func main() {"; "entry:"; "  p = alloc pmem s"; "  br b0" ]
    @ List.concat_map
        (fun (i, fld) ->
          [
            Printf.sprintf "b%d:" i;
            Printf.sprintf "  store p->%s, %d" fld i;
            Printf.sprintf "  persist exact p->%s" fld;
            Printf.sprintf "  v%d = load p->%s" i fld;
            Printf.sprintf "  c%d = v%d > 0" i i;
            Printf.sprintf "  br c%d, t%d, e%d" i i i;
            Printf.sprintf "t%d:" i;
            Printf.sprintf "  store p->%s, %d" fld (i + 1);
            Printf.sprintf "  persist exact p->%s" fld;
            Printf.sprintf "  br b%d" (i + 1);
            Printf.sprintf "e%d:" i;
            Printf.sprintf "  br b%d" (i + 1);
          ])
        [ (0, "a"); (1, "b"); (2, "c"); (3, "d"); (4, "e") ]
    @ [ "b5:"; "  store p->f, 9"; "  persist exact p->f"; "  ret"; "}" ])

let test_streaming_peak_paths () =
  let prog = Nvmir.Parser.parse branchy_source in
  let r =
    Analysis.Checker.check ~roots:[ "main" ] ~model:Analysis.Model.Strict prog
  in
  check Alcotest.int "every path checked" 32 r.Analysis.Checker.trace_count;
  if r.Analysis.Checker.peak_paths >= r.Analysis.Checker.trace_count then
    Alcotest.failf "streaming peak %d not below the %d paths checked"
      r.Analysis.Checker.peak_paths r.Analysis.Checker.trace_count

(* The walker recurses at branch points and call sites only: a root
   with a 20,000-event straight-line body, and one whose path runs
   through a chain of 8 nested callees with a branch each, are checked
   on a pool worker domain without exhausting its stack, with the
   reference's path counts. *)
let long_body_src =
  let body =
    List.init 6667 (fun i ->
        Printf.sprintf "  store p->a, %d\n  persist exact p->a" i)
  in
  String.concat "\n"
    ([ "struct s { a: int }"; "func main() {"; "entry:"; "  p = alloc pmem s" ]
    @ body @ [ "  ret"; "}" ])

let nested_calls_src =
  let func i =
    [
      Printf.sprintf "func f%d(p: ptr s, n: int) {" i;
      "entry:";
      Printf.sprintf "  store p->a, %d" i;
      Printf.sprintf "  c = n > %d" i;
      "  br c, t, e";
      "t:";
      (if i < 7 then Printf.sprintf "  call f%d(p, n)" (i + 1) else "  fence");
      "  persist exact p->a";
      "  ret";
      "e:";
      Printf.sprintf "  store p->b, %d" i;
      "  persist exact p->b";
      "  ret";
      "}";
    ]
  in
  String.concat "\n"
    (("struct s { a: int, b: int }" :: List.concat_map func (List.init 8 Fun.id))
    @ [ "func main() {"; "entry:"; "  p = alloc pmem s"; "  call f0(p, 3)";
        "  ret"; "}" ])

let test_deep_paths_on_worker () =
  let pool = Pool.create ~size:2 () in
  let finished = Atomic.make false in
  let on_worker prog =
    (* the main domain holds its chunk until a worker has checked *)
    Pool.map ~chunk:1 pool
      (fun () ->
        if Domain.is_main_domain () then begin
          while not (Atomic.get finished) do
            Domain.cpu_relax ()
          done;
          None
        end
        else
          let r =
            Analysis.Checker.check ~roots:[ "main" ] ~model:Analysis.Model.Strict
              prog
          in
          Atomic.set finished true;
          Some r)
      [ (); () ]
    |> List.find_map Fun.id
  in
  List.iter
    (fun (what, src) ->
      Atomic.set finished false;
      let prog = Nvmir.Parser.parse src in
      let expected =
        List.length
          (List.assoc "main"
             (Ref_trace.collect (Dsa.Dsg.build prog) prog [ "main" ]))
      in
      match on_worker prog with
      | None -> Alcotest.failf "%s: not checked on a worker" what
      | Some r -> check Alcotest.int (what ^ " paths") expected r.Analysis.Checker.trace_count)
    [ ("long body", long_body_src); ("nested calls", nested_calls_src) ];
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Pool behaviour *)

(* Workers are spawned once and reused across submissions. *)
let test_pool_reuse () =
  let p = Pool.create ~size:2 () in
  let r1 = Pool.map p (fun x -> x + 1) (List.init 50 Fun.id) in
  let r2 = Pool.map p (fun x -> x * 2) (List.init 50 Fun.id) in
  let r3 = Pool.map p Fun.id [] in
  check Alcotest.(list int) "first" (List.init 50 (fun x -> x + 1)) r1;
  check Alcotest.(list int) "second" (List.init 50 (fun x -> x * 2)) r2;
  check Alcotest.(list int) "empty" [] r3;
  let s = Pool.stats p in
  check Alcotest.int "jobs counted" 2 s.Pool.jobs;
  if s.Pool.spawned_total > 1 then
    Alcotest.failf "pool of size 2 spawned %d workers across 2 jobs"
      s.Pool.spawned_total;
  Pool.shutdown p;
  check Alcotest.int "all joined" 0 (Pool.stats p).Pool.alive;
  (* the pool survives shutdown: the next job respawns lazily *)
  check Alcotest.(list int) "usable after shutdown" [ 2; 3 ]
    (Pool.map p (fun x -> x + 1) [ 1; 2 ]);
  Pool.shutdown p

(* A raising worker propagates its exception and leaves the pool
   usable. *)
let test_pool_raising_worker () =
  let p = Pool.create ~size:2 () in
  (match
     Pool.map p (fun x -> if x = 13 then failwith "pow" else x)
       (List.init 40 Fun.id)
   with
  | _ -> Alcotest.fail "expected the worker's exception"
  | exception Failure m -> check Alcotest.string "message" "pow" m);
  check Alcotest.(list int) "pool survives" [ 1; 4; 9 ]
    (Pool.map p (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown p

(* A worker task may itself submit to the same pool: the caller-helps
   drain makes nesting deadlock-free even when every domain is busy. *)
let test_pool_nested_submission () =
  let p = Pool.create ~size:2 () in
  let nested =
    Pool.map p
      (fun x -> List.fold_left ( + ) 0 (Pool.map p (fun y -> x * y) [ 1; 2; 3 ]))
      (List.init 20 Fun.id)
  in
  check Alcotest.(list int) "nested results"
    (List.init 20 (fun x -> 6 * x))
    nested;
  Pool.shutdown p

let suite =
  [
    tc "corpus warning sets" `Quick test_corpus_warning_sets;
    tc "corpus trace streams" `Quick test_corpus_trace_streams;
    tc "incremental rules agree" `Quick test_incremental_rules_agree;
    tc "recursive roots" `Quick test_recursive_roots;
    test_qcheck_reference;
    test_qcheck_reference_small_caps;
    tc "streaming peak paths" `Quick test_streaming_peak_paths;
    tc "deep paths on a worker domain" `Quick test_deep_paths_on_worker;
    tc "pool reuse" `Quick test_pool_reuse;
    tc "pool raising worker" `Quick test_pool_raising_worker;
    tc "pool nested submission" `Quick test_pool_nested_submission;
  ]
