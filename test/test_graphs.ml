(* Tests for CFGs, dominators, natural loops and call graphs. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* A diamond with a loop on one arm:

     entry -> a -> b -> join
           \-> c -/
     b -> b (self loop via latch)            *)
let diamond_with_loop () =
  Nvmir.Parser.parse
    {|
func f(n: int) {
entry:
  c = n > 0
  br c, a, cc
a:
  i = 0
  br b
b:
  i = i + 1
  d = i < 10
  br d, b, join
cc:
  x = 1
  br join
join:
  ret
}
|}

let cfg_of prog name =
  match Nvmir.Prog.find_func prog name with
  | Some f -> Graphs.Cfg.of_func f
  | None -> Alcotest.fail ("no function " ^ name)

let test_cfg_edges () =
  let cfg = cfg_of (diamond_with_loop ()) "f" in
  check Alcotest.(slist string compare) "entry succs" [ "a"; "cc" ]
    (Graphs.Cfg.successors cfg "entry");
  check Alcotest.(slist string compare) "join preds" [ "b"; "cc" ]
    (Graphs.Cfg.predecessors cfg "join");
  check Alcotest.int "blocks" 5 (Graphs.Cfg.block_count cfg)

let test_cfg_orders () =
  let cfg = cfg_of (diamond_with_loop ()) "f" in
  let pre = Graphs.Cfg.dfs_preorder cfg in
  check Alcotest.string "starts at entry" "entry" (List.hd pre);
  check Alcotest.int "visits all blocks" 5 (List.length pre);
  let rpo = Graphs.Cfg.reverse_postorder cfg in
  check Alcotest.string "rpo starts at entry" "entry" (List.hd rpo);
  (* in RPO a block precedes its (non-back-edge) successors *)
  let idx l = Option.get (List.find_index (String.equal l) rpo) in
  Alcotest.(check bool) "a before b" true (idx "a" < idx "b");
  Alcotest.(check bool) "b before join" true (idx "b" < idx "join")

let test_dominators () =
  let cfg = cfg_of (diamond_with_loop ()) "f" in
  let doms = Graphs.Dominators.compute cfg in
  check Alcotest.(option string) "idom of a" (Some "entry")
    (Graphs.Dominators.idom doms "a");
  check Alcotest.(option string) "idom of join" (Some "entry")
    (Graphs.Dominators.idom doms "join");
  check Alcotest.bool "entry dominates all" true
    (Graphs.Dominators.dominates doms "entry" "join");
  check Alcotest.bool "a does not dominate join" false
    (Graphs.Dominators.dominates doms "a" "join");
  check Alcotest.bool "b dominates b" true
    (Graphs.Dominators.dominates doms "b" "b")

let test_loops () =
  let cfg = cfg_of (diamond_with_loop ()) "f" in
  let loops = Graphs.Loops.compute cfg in
  check Alcotest.(list string) "one loop header" [ "b" ]
    (Graphs.Loops.headers loops);
  check Alcotest.bool "b->b is a back edge" true
    (Graphs.Loops.is_back_edge loops ~source:"b" ~target:"b");
  check Alcotest.bool "entry->a is not" false
    (Graphs.Loops.is_back_edge loops ~source:"entry" ~target:"a");
  check Alcotest.bool "b in loop" true (Graphs.Loops.in_loop loops "b");
  check Alcotest.bool "join not in loop" false (Graphs.Loops.in_loop loops "join")

let call_prog () =
  Nvmir.Parser.parse
    {|
func leaf() { entry: ret }
func mid() { entry: call leaf() ret }
func top() { entry: call mid() call leaf() ret }
func rec_a() { entry: call rec_b() ret }
func rec_b() { entry: call rec_a() ret }
|}

let test_callgraph_edges () =
  let cg = Graphs.Callgraph.of_prog (call_prog ()) in
  check Alcotest.(slist string compare) "top callees" [ "leaf"; "mid" ]
    (Graphs.Callgraph.callees cg "top");
  check Alcotest.(slist string compare) "leaf callers" [ "mid"; "top" ]
    (Graphs.Callgraph.callers cg "leaf");
  check Alcotest.(slist string compare) "roots" [ "top" ]
    (Graphs.Callgraph.roots cg)

let test_callgraph_postorder () =
  let cg = Graphs.Callgraph.of_prog (call_prog ()) in
  let po = Graphs.Callgraph.postorder cg in
  let idx n = Option.get (List.find_index (String.equal n) po) in
  Alcotest.(check bool) "leaf before mid" true (idx "leaf" < idx "mid");
  Alcotest.(check bool) "mid before top" true (idx "mid" < idx "top");
  check Alcotest.int "covers all functions" 5 (List.length po)

let test_callgraph_sccs () =
  let cg = Graphs.Callgraph.of_prog (call_prog ()) in
  let sccs = Graphs.Callgraph.sccs cg in
  let cyclic = List.filter (fun s -> List.length s > 1) sccs in
  check Alcotest.int "one cyclic component" 1 (List.length cyclic);
  check
    Alcotest.(slist string compare)
    "the recursive pair" [ "rec_a"; "rec_b" ] (List.hd cyclic);
  check Alcotest.bool "rec_a recursive" true
    (Graphs.Callgraph.is_recursive cg "rec_a");
  check Alcotest.bool "leaf not recursive" false
    (Graphs.Callgraph.is_recursive cg "leaf")

(* properties over generated programs *)
let prop_rpo_covers_reachable =
  QCheck.Test.make ~name:"RPO covers exactly the reachable blocks" ~count:25
    QCheck.(map abs int)
    (fun seed ->
      let cfg_s = { Corpus.Synth.default_config with seed; nfuncs = 6 } in
      let prog, _ = Corpus.Synth.generate cfg_s in
      List.for_all
        (fun f ->
          let cfg = Graphs.Cfg.of_func f in
          let rpo = Graphs.Cfg.reverse_postorder cfg in
          let pre = Graphs.Cfg.dfs_preorder cfg in
          List.sort compare rpo = List.sort compare pre)
        (Nvmir.Prog.funcs prog))

let ( ==> ) a b = (not a) || b

let prop_postorder_callees_first =
  QCheck.Test.make ~name:"call-graph postorder puts callees first" ~count:25
    QCheck.(map abs int)
    (fun seed ->
      let cfg_s = { Corpus.Synth.default_config with seed; nfuncs = 12 } in
      let prog, _ = Corpus.Synth.generate cfg_s in
      let cg = Graphs.Callgraph.of_prog prog in
      let po = Graphs.Callgraph.postorder cg in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace pos n i) po;
      List.for_all
        (fun f ->
          let name = Nvmir.Func.name f in
          (not (Graphs.Callgraph.is_recursive cg name))
          ==> List.for_all
                (fun callee ->
                  match
                    (Hashtbl.find_opt pos callee, Hashtbl.find_opt pos name)
                  with
                  | Some ci, Some ni -> ci < ni
                  | _ -> true)
                (Graphs.Callgraph.callees cg name))
        (Nvmir.Prog.funcs prog))

(* ------------------------------------------------------------------ *)
(* The numbered call graph against the string-keyed reference
   ([Ref_graphs]). *)

let agrees_with_reference what prog =
  let cg = Graphs.Callgraph.of_prog prog in
  let strings = Alcotest.(list string) in
  let label s = Fmt.str "%s: %s" what s in
  check strings (label "postorder") (Ref_graphs.postorder prog)
    (Graphs.Callgraph.postorder cg);
  check Alcotest.(list (list string)) (label "sccs") (Ref_graphs.sccs prog)
    (Graphs.Callgraph.sccs cg);
  check strings (label "roots") (Ref_graphs.roots prog)
    (Graphs.Callgraph.roots cg);
  check strings (label "cyclic") (Ref_graphs.cyclic prog)
    (Graphs.Callgraph.cyclic cg);
  let ref_callers = Ref_graphs.callers prog in
  let ref_recursive = Ref_graphs.is_recursive prog in
  let funcs = Nvmir.Prog.funcs prog in
  List.iter
    (fun name ->
      check strings (label ("callers of " ^ name)) (ref_callers name)
        (Graphs.Callgraph.callers cg name);
      check Alcotest.bool (label ("is_recursive " ^ name))
        (ref_recursive name)
        (Graphs.Callgraph.is_recursive cg name))
    (Nvmir.Prog.func_names prog @ List.concat_map Nvmir.Func.callees funcs)

let test_reference_corpus () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      agrees_with_reference p.name (Corpus.Types.parse p);
      Option.iter
        (agrees_with_reference (p.name ^ " (fixed)"))
        (Corpus.Types.parse_fixed p))
    (Corpus.Registry.all @ Corpus.Recovery.programs);
  agrees_with_reference "call_prog" (call_prog ());
  List.iter
    (fun (what, src) -> agrees_with_reference what (Nvmir.Parser.parse src))
    [
      ("recursion", Test_trace.recursion_src);
      ("cyclic", Test_rules_oracle.cyclic_src);
      ("offset chain", Test_dsa.offset_chain_src);
    ]

let test_reference_synth () =
  List.iter
    (fun (seed, nfuncs, ptr_arith) ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs; ptr_arith;
          buggy_fraction_pct = 25 }
      in
      agrees_with_reference
        (Fmt.str "synth seed %d n %d" seed nfuncs)
        (fst (Corpus.Synth.generate cfg)))
    [ (1, 6, false); (2, 40, true); (3, 400, false); (4, 400, true) ]

(* Random programs whose call graphs have self calls, cycles, calls to
   functions declared later or not at all, and functions nothing calls. *)
let random_prog_gen =
  QCheck.Gen.(
    let* n = int_range 1 9 in
    let* funcs =
      list_repeat n
        (let* blocks = int_range 1 4 in
         list_repeat blocks
           (pair
              (list_size (int_bound 3)
                 (oneof
                    [
                      map (Fmt.str "f%d") (int_bound 9);
                      map (Fmt.str "ext%d") (int_bound 2);
                    ]))
              (triple (int_bound 3) (int_bound (blocks - 1))
                 (int_bound (blocks - 1)))))
    in
    return
      (String.concat "\n"
         (List.mapi
            (fun i blocks ->
              let nb = List.length blocks in
              Fmt.str "func f%d() {\n%s}" i
                (String.concat ""
                   (List.mapi
                      (fun b (calls, (kind, t, e)) ->
                        Fmt.str "b%d:\n%s  %s\n" b
                          (String.concat ""
                             (List.map (Fmt.str "  call %s()\n") calls))
                          (match kind with
                          | 0 -> "ret"
                          | 1 -> Fmt.str "br b%d" t
                          | _ when b + 1 < nb ->
                            Fmt.str "br c, b%d, b%d" (b + 1) e
                          | _ -> Fmt.str "br c, b%d, b%d" t e))
                      blocks)))
            funcs)))

let prop_reference_random =
  QCheck.Test.make ~name:"call graph = reference (random)"
    ~count:200
    (QCheck.make ~print:Fun.id random_prog_gen)
    (fun src ->
      agrees_with_reference "random" (Nvmir.Parser.parse src);
      true)

let suite =
  [
    tc "cfg: edges" `Quick test_cfg_edges;
    tc "cfg: traversal orders" `Quick test_cfg_orders;
    tc "dominators" `Quick test_dominators;
    tc "natural loops" `Quick test_loops;
    tc "callgraph: edges and roots" `Quick test_callgraph_edges;
    tc "callgraph: postorder" `Quick test_callgraph_postorder;
    tc "callgraph: SCCs and recursion" `Quick test_callgraph_sccs;
    QCheck_alcotest.to_alcotest prop_rpo_covers_reachable;
    QCheck_alcotest.to_alcotest prop_postorder_callees_first;
    tc "reference: corpus and recursive programs" `Quick test_reference_corpus;
    tc "reference: synth programs" `Quick test_reference_synth;
    QCheck_alcotest.to_alcotest prop_reference_random;
  ]
