(* Differential suite for the rule fold: [Analysis.Rules] (one forward
   fold, which the checker steps along each root's expansion tree) must
   report exactly what the whole-path reference evaluator [Ref_rules]
   reports — per path as lists, and per root after first-occurrence
   dedup as full records, witnesses included. *)

open Analysis

let tc = Alcotest.test_case
let warning = Alcotest.testable Warning.pp ( = )
let warnings = Alcotest.list warning

let with_witness on f =
  let before = Witness.enabled () in
  Witness.set_enabled on;
  Fun.protect ~finally:(fun () -> Witness.set_enabled before) f

let reference_path ctx t = Ref_rules.run_all ctx (Rules.scope_trace t)

(* what the checker keeps of a root's paths: the reference per path,
   first occurrence of each dedup key *)
let reference_root ctx paths =
  Warning.dedup (List.concat_map (reference_path ctx) paths)

(* The fold over a list of paths, each folded from the start, first
   occurrence of each dedup key kept *)
let check_paths ctx paths =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun path ->
      let fold = List.fold_left (Rules.Fold.step ctx) Rules.Fold.start path in
      Rules.Fold.warnings ctx (lazy path)
        (List.filter
           (fun f ->
             let key = Rules.Fold.key f in
             (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
           (Rules.Fold.close fold)))
    paths

(* Every function of [prog] as a root under [model]: each path's
   [Incremental.finish] equals the reference's list, and each root's
   checked warnings equal the reference's after sorting. *)
let agree ~what ~model prog =
  let dsg = Config.build_dsg Config.default prog in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  let roots = Nvmir.Prog.func_names prog in
  let traces = Trace.collect ~roots dsg prog in
  let per_root, _ = Checker.check_roots ~dsg ~roots ~model prog in
  List.iter2
    (fun (root, paths) (pr : Checker.per_root) ->
      let what = Fmt.str "%s/%s %a" what root Model.pp model in
      Alcotest.(check string) "root order" root pr.Checker.pr_root;
      List.iteri
        (fun i t ->
          Alcotest.check warnings
            (Fmt.str "%s path %d" what i)
            (reference_path ctx t)
            Rules.Incremental.(finish ctx (feed start t)))
        paths;
      Alcotest.check warnings what
        (Warning.sort (reference_root ctx paths))
        (Warning.sort pr.Checker.pr_warnings))
    traces per_root

let corpus_agrees ~witness () =
  with_witness witness (fun () ->
      List.iter
        (fun (p : Corpus.Types.program) ->
          let prog = Corpus.Types.parse p in
          List.iter
            (fun model -> agree ~what:p.Corpus.Types.name ~model prog)
            Model.all)
        Corpus.Registry.all)

(* QCheck: generated programs of varying size, bug density and pointer
   arithmetic, every function a root ([main]'s long paths reach the path
   cap), under a drawn model with capture on or off. *)
let synth_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"fold = reference (synth)"
       (QCheck.make
          ~print:(fun (seed, nfuncs, buggy, ptr_arith, model, witness) ->
            Fmt.str
              "seed=%d nfuncs=%d buggy=%d%% ptr_arith=%b model=%a witness=%b"
              seed nfuncs buggy ptr_arith Model.pp model witness)
          QCheck.Gen.(
            map
              (fun ((seed, nfuncs, buggy), (ptr_arith, model, witness)) ->
                (seed, nfuncs, buggy, ptr_arith, model, witness))
              (pair
                 (triple (int_bound 1000) (int_range 2 10) (int_bound 100))
                 (triple bool (oneofl Model.all) bool))))
       (fun (seed, nfuncs, buggy_fraction_pct, ptr_arith, model, witness) ->
         let prog, _ =
           Corpus.Synth.generate
             {
               Corpus.Synth.default_config with
               seed;
               nfuncs;
               buggy_fraction_pct;
               ptr_arith;
             }
         in
         with_witness witness (fun () -> agree ~what:"synth" ~model prog);
         true))

(* ------------------------------------------------------------------ *)
(* Random paths

   Programs reach few of the rules' corner cases (an epoch end outside
   any epoch, a log whose transaction has closed, overlapping strand
   regions, ...). Random event sequences over a handful of addresses
   and source lines reach them all, and make dedup keys collide. *)

let random_prog =
  Nvmir.Parser.parse
    {|
struct s { a: int, b: int, c: int }
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
  store p->a, 1
  store p->b, 1
  store q->c, 1
  flush object p
  flush exact q->a
  ret
}
|}

let random_dsg = Config.build_dsg Config.default random_prog

(* the program's addresses — whole objects and fields of two nodes the
   DSG knows, so the whole-object rules can ask for field counts *)
let random_addrs =
  List.sort_uniq compare
    (List.concat_map
       (fun (_, ts) -> List.concat_map (List.filter_map Event.addr) ts)
       (Trace.collect ~roots:[ "main" ] random_dsg random_prog))

let gen_event =
  let open QCheck.Gen in
  let addr = oneofl random_addrs in
  let* line = int_range 1 6 in
  let+ kind =
    frequency
      [
        (6, map (fun a -> Event.Write a) addr);
        ( 5,
          map2
            (fun a persist ->
              Event.Flush
                (a, if persist then Event.From_persist else Event.Plain))
            addr bool );
        (4, return Event.Fence);
        (3, map (fun a -> Event.Log a) addr);
        (2, return Event.Tx_begin);
        (2, return Event.Tx_end);
        (2, return Event.Epoch_begin);
        (2, return Event.Epoch_end);
        (2, map (fun n -> Event.Strand_begin n) (int_range 0 2));
        (2, map (fun n -> Event.Strand_end n) (int_range 0 2));
        (1, return (Event.Call_mark "g"));
        (1, return (Event.Ret_mark "g"));
      ]
  in
  Event.make ~fname:"main" ~loc:(Nvmir.Loc.make ~file:"random.nvmir" ~line) kind

(* Paths in DFS style: each keeps a random prefix of the one before and
   continues with fresh events, so dedup keys recur across paths. *)
let gen_paths =
  let open QCheck.Gen in
  let* first = list_size (int_range 0 30) gen_event in
  let* rest =
    list_size (int_range 0 5)
      (pair (int_range 0 30) (list_size (int_range 0 15) gen_event))
  in
  return
    (List.rev
       (List.fold_left
          (fun acc (keep, suffix) ->
            let prefix = List.filteri (fun i _ -> i < keep) (List.hd acc) in
            (prefix @ suffix) :: acc)
          [ first ] rest))

let random_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"fold = reference (random paths)"
       (QCheck.make
          ~print:(fun (paths, witness) ->
            Fmt.str "witness=%b@.%a" witness
              Fmt.(list ~sep:(any "@.--@.") Trace.pp)
              paths)
          QCheck.Gen.(pair gen_paths bool))
       (fun (paths, witness) ->
         with_witness witness (fun () ->
             List.for_all
               (fun model ->
                 let ctx =
                   {
                     Rules.model;
                     dsg = random_dsg;
                     tenv = Nvmir.Prog.tenv random_prog;
                   }
                 in
                 List.for_all
                   (fun t ->
                     reference_path ctx t
                     = Rules.Incremental.(finish ctx (feed start t)))
                   paths
                 && reference_root ctx paths = check_paths ctx paths)
               Model.all)))

(* ------------------------------------------------------------------ *)
(* Stepping shared prefixes once *)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* The checker on [root] of [prog] equals the reference, and reports
   the reference's paths, the events it stepped through the fold and
   the path events it reused from a sibling *)
let walked ~model prog root =
  let dsg = Config.build_dsg Config.default prog in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  let got =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        match fst (Checker.check_roots ~dsg ~roots:[ root ] ~model prog) with
        | [ pr ] -> pr.Checker.pr_warnings
        | _ -> Alcotest.fail "one root checked")
  in
  let counts = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let count name =
    Option.fold ~none:0 ~some:Obs.Metrics.int_of_value
      (Obs.Metrics.find counts name)
  in
  let paths = List.assoc root (Ref_trace.collect dsg prog [ root ]) in
  Alcotest.check warnings "checked = reference" (reference_root ctx paths) got;
  let stepped = count "rules.events_stepped"
  and reused = count "rules.events_reused" in
  Alcotest.(check int) "every path event stepped or reused"
    (List.fold_left (fun n p -> n + List.length p) 0 paths)
    (stepped + reused);
  (got, paths, stepped, reused)

(* A root with a single path reuses nothing. *)
let test_single_path () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { a: int, b: int }
func main() {
entry:
  p = alloc pmem s
  tx_begin           @ resume.nvmir:1
  store p->a, 1      @ resume.nvmir:2
  flush exact p->a   @ resume.nvmir:3
  flush exact p->a   @ resume.nvmir:4
  tx_end             @ resume.nvmir:5
  store p->b, 1      @ resume.nvmir:6
  ret
}
|}
  in
  List.iter
    (fun model ->
      let got, paths, stepped, reused = walked ~model prog "main" in
      Alcotest.(check int) "one path" 1 (List.length paths);
      Alcotest.(check int) "stepped" (List.length (List.hd paths)) stepped;
      Alcotest.(check int) "reused" 0 reused;
      Alcotest.(check bool) "warned" true (got <> []))
    Model.all

(* A warning the fold settles early (the flush of b, the first late
   flush on line 7) shares its dedup key with one it settles later on
   the same line (the late flush of a). The rule lists them by write,
   so the reference keeps a's, and so must the checker — alone, and
   after a sibling path that shares the prefix and settles b's. *)
let settled_src ~sibling =
  Printf.sprintf
    {|
struct s { a: int, b: int, c: int }
func main(n: int) {
entry:
  p = alloc pmem s
  epoch_begin        @ resume.nvmir:1
  store p->a, 1      @ resume.nvmir:2
  store p->b, 1      @ resume.nvmir:3
  epoch_end          @ resume.nvmir:4
  epoch_begin        @ resume.nvmir:5
  flush exact p->b   @ resume.nvmir:7
  %s
late:
  flush exact p->a   @ resume.nvmir:7
  fence              @ resume.nvmir:8
  ret
sibling:
  store p->c, 1      @ resume.nvmir:9
  ret
}
|}
    (if sibling then "c = n > 0
  br c, sibling, late" else "br late")

let test_settled_duplicate () =
  let late_a (ws : Warning.t list) =
    List.exists
      (fun (w : Warning.t) ->
        w.Warning.rule = Warning.Multiple_writes_at_once
        && contains w.Warning.message ".a")
      ws
  in
  List.iter
    (fun model ->
      let got, _, _, _ =
        walked ~model (Nvmir.Parser.parse (settled_src ~sibling:false)) "main"
      in
      Alcotest.(check bool) "reference duplicate wins" true (late_a got);
      let got, paths, _, reused =
        walked ~model (Nvmir.Parser.parse (settled_src ~sibling:true)) "main"
      in
      Alcotest.(check int) "two paths" 2 (List.length paths);
      Alcotest.(check bool) "prefix stepped once" true (reused > 0);
      Alcotest.(check bool) "first path's key kept" false (late_a got))
    [ Model.Epoch; Model.Strand ]

(* A self-recursive function and a mutually recursive pair, called
   from an acyclic driver. *)
let cyclic_src =
  {|
struct s { f: int, g: int }
func rec_f(p: ptr s, n: int) {
entry:
  store p->f, n
  flush exact p->f
  m = n - 1
  c = m > 0
  br c, again, fin
again:
  call rec_f(p, m)
  store p->g, m
  br fin
fin:
  fence
  ret
}
func rec_a(p: ptr s, n: int) {
entry:
  epoch_begin
  tx_begin
  tx_add exact p->g
  store p->g, n
  c = n > 0
  br c, down, fin
down:
  call rec_b(p, n)
  br fin
fin:
  tx_end
  epoch_end
  ret
}
func rec_b(p: ptr s, n: int) {
entry:
  store p->f, n
  persist exact p->f
  m = n - 1
  call rec_a(p, m)
  ret
}
func main() {
entry:
  p = alloc pmem s
  call rec_f(p, 100)
  call rec_a(p, 3)
  ret
}
|}

(* A cyclic root walks its own CFG, reading its callees' unrolling
   tables, so its paths share their prefix steps like any other root's. *)
let test_cyclic_root () =
  let prog = Nvmir.Parser.parse cyclic_src in
  List.iter (fun model -> agree ~what:"rec_f" ~model prog) Model.all;
  let _, paths, _, reused = walked ~model:Model.Strict prog "rec_f" in
  Alcotest.(check bool) "several paths" true (List.length paths > 1);
  Alcotest.(check bool) "prefix stepped once" true (reused > 0)

let suite =
  [
    tc "corpus, capture off" `Quick (corpus_agrees ~witness:false);
    tc "corpus, capture on" `Quick (corpus_agrees ~witness:true);
    synth_agrees;
    random_agrees;
    tc "resume: single path" `Quick test_single_path;
    tc "resume: settled duplicate key" `Quick test_settled_duplicate;
    tc "resume: cyclic root" `Quick test_cyclic_root;
  ]
