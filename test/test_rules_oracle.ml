(* Differential suite for the rule fold: [Analysis.Rules] (one forward
   fold, resumed by the checker from each path's shared prefix) must
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
   continues with fresh events; sometimes the prefix is copied, as the
   expansion does with its return marks. *)
let gen_paths =
  let open QCheck.Gen in
  let* first = list_size (int_range 0 30) gen_event in
  let* rest =
    list_size (int_range 0 5)
      (triple (int_range 0 30) bool (list_size (int_range 0 15) gen_event))
  in
  return
    (List.rev
       (List.fold_left
          (fun acc (keep, copy, suffix) ->
            let prev = List.hd acc in
            let prefix = List.filteri (fun i _ -> i < keep) prev in
            let prefix =
              if copy then
                List.map
                  (fun (e : Event.t) -> { e with Event.loc = e.Event.loc })
                  prefix
              else prefix
            in
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
                 && reference_root ctx paths
                    = Checker.check_paths ctx (List.to_seq paths))
               Model.all)))

(* ------------------------------------------------------------------ *)
(* Resuming from the shared prefix *)

let loc line = Nvmir.Loc.make ~file:"resume.nvmir" ~line
let ev line kind = Event.make ~fname:"main" ~loc:(loc line) kind
let fld f = Dsa.Aaddr.field 0 f

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let ctx_of model =
  let prog = Nvmir.Parser.parse "func main() {\nentry:\n  ret\n}" in
  { Rules.model; dsg = Dsa.Dsg.build prog; tenv = Nvmir.Prog.tenv prog }

(* [check_paths] on [paths] equals the reference, and reports the
   events it stepped and resumed *)
let resumed ~model paths =
  let ctx = ctx_of model in
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  let got =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Checker.check_paths ctx (List.to_seq paths))
  in
  let counts = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let count name =
    Option.fold ~none:0 ~some:Obs.Metrics.int_of_value
      (Obs.Metrics.find counts name)
  in
  Alcotest.check warnings "checked = reference" (reference_root ctx paths) got;
  (got, count "rules.events_stepped", count "rules.events_reused")

(* Two paths through a run of calls that diverge right after the last
   return: the expansion allocates each path's Ret_marks afresh, so
   only the structural comparison sees that the prefix runs through
   them. The first path leaves its flush unfenced before the next
   write; the second fences it. *)
let test_diverge_after_ret_mark () =
  let calls () =
    List.concat
      (List.init 12 (fun i ->
           [
             ev i (Event.Call_mark "g");
             ev i (Event.Write (fld "a"));
             ev i (Event.Flush (fld "a", Event.Plain));
             ev i (Event.Ret_mark "g");
           ]))
  in
  let tail =
    [
      ev 20 (Event.Write (fld "b"));
      ev 21 (Event.Flush (fld "b", Event.Plain));
    ]
  in
  let first = ev 0 (Event.Write (fld "z")) in
  let p1 = (first :: calls ()) @ tail in
  let p2 = (first :: calls ()) @ (ev 19 Event.Fence :: tail) in
  let got, stepped, reused = resumed ~model:Model.Strict [ p1; p2 ] in
  Alcotest.(check bool) "resumed past a Ret_mark" true (reused > 0);
  Alcotest.(check int) "every event stepped or resumed"
    (List.length p1 + List.length p2)
    (stepped + reused);
  Alcotest.(check bool) "first path's missing barrier kept" true
    (List.exists
       (fun (w : Warning.t) ->
         w.Warning.rule = Warning.Missing_persist_barrier
         && w.Warning.loc.Nvmir.Loc.line = 11)
       got)

(* A root with a single path resumes nothing. *)
let test_single_path () =
  let p =
    [
      ev 1 Event.Tx_begin;
      ev 2 (Event.Write (fld "a"));
      ev 3 (Event.Flush (fld "a", Event.Plain));
      ev 4 (Event.Flush (fld "a", Event.Plain));
      ev 5 Event.Tx_end;
      ev 6 (Event.Write (fld "b"));
    ]
  in
  List.iter
    (fun model ->
      let got, stepped, reused = resumed ~model [ p ] in
      Alcotest.(check int) "stepped" (List.length p) stepped;
      Alcotest.(check int) "reused" 0 reused;
      Alcotest.(check bool) "warned" true (got <> []))
    Model.all

(* A warning the fold settles early (the flush of b, the first late
   flush on line 7) shares its dedup key with one it settles later on
   the same line (the late flush of a). The rule lists them by write,
   so the reference keeps a's, and so must the checker — alone and
   after a previous path that shares the prefix. *)
let test_settled_duplicate () =
  let prefix =
    [
      ev 1 Event.Epoch_begin;
      ev 2 (Event.Write (fld "a"));
      ev 3 (Event.Write (fld "b"));
      ev 4 Event.Epoch_end;
      ev 5 Event.Epoch_begin;
      ev 7 (Event.Flush (fld "b", Event.Plain));
    ]
  in
  let p =
    prefix @ [ ev 7 (Event.Flush (fld "a", Event.Plain)); ev 8 Event.Fence ]
  in
  let late_a (ws : Warning.t list) =
    List.exists
      (fun (w : Warning.t) ->
        w.Warning.rule = Warning.Multiple_writes_at_once
        && contains w.Warning.message "write to n0.a")
      ws
  in
  List.iter
    (fun model ->
      let got, _, _ = resumed ~model [ p ] in
      Alcotest.(check bool) "reference duplicate wins" true (late_a got);
      let got, _, _ =
        resumed ~model [ prefix @ [ ev 9 (Event.Write (fld "c")) ]; p ]
      in
      Alcotest.(check bool) "first path's key kept" false (late_a got))
    [ Model.Epoch; Model.Strand ]

(* A cyclic root (self- or mutually recursive) is read from the
   materialized unrolling table rather than a lazy expansion; its paths
   resume all the same. *)
let test_cyclic_root () =
  let prog =
    Nvmir.Parser.parse
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
  in
  List.iter (fun model -> agree ~what:"rec_f" ~model prog) Model.all;
  let dsg = Config.build_dsg Config.default prog in
  let paths = List.assoc "rec_f" (Trace.collect ~roots:[ "rec_f" ] dsg prog) in
  Alcotest.(check bool) "several paths" true (List.length paths > 1);
  let _, _, reused = resumed ~model:Model.Strict paths in
  Alcotest.(check bool) "prefix resumed" true (reused > 0)

let suite =
  [
    tc "corpus, capture off" `Quick (corpus_agrees ~witness:false);
    tc "corpus, capture on" `Quick (corpus_agrees ~witness:true);
    synth_agrees;
    random_agrees;
    tc "resume: diverge after Ret_mark" `Quick test_diverge_after_ret_mark;
    tc "resume: single path" `Quick test_single_path;
    tc "resume: settled duplicate key" `Quick test_settled_duplicate;
    tc "resume: cyclic root" `Quick test_cyclic_root;
  ]
