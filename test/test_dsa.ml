(* Tests for the DSA: arena/union-find, abstract addresses, and the
   three-phase DSG construction with its alias and persistence
   queries. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Arena *)

let test_arena_unify_merges_flags () =
  let a = Dsa.Arena.create () in
  let n1 = Dsa.Arena.fresh a ~persistent:true () in
  let n2 = Dsa.Arena.fresh a () in
  check Alcotest.bool "n2 volatile before" false (Dsa.Arena.is_persistent a n2);
  Dsa.Arena.unify a n1 n2;
  check Alcotest.bool "same root" true (Dsa.Arena.find a n1 = Dsa.Arena.find a n2);
  check Alcotest.bool "persistence propagates" true (Dsa.Arena.is_persistent a n2)

let test_arena_unify_merges_edges_recursively () =
  let a = Dsa.Arena.create () in
  let p1 = Dsa.Arena.fresh a () and p2 = Dsa.Arena.fresh a () in
  let t1 = Dsa.Arena.ensure_edge a p1 (Some "next") in
  let t2 = Dsa.Arena.ensure_edge a p2 (Some "next") in
  Dsa.Arena.set_persistent a t1;
  Dsa.Arena.unify a p1 p2;
  (* merging the parents must unify the "next" targets too *)
  check Alcotest.bool "edge targets unified" true
    (Dsa.Arena.find a t1 = Dsa.Arena.find a t2);
  check Alcotest.bool "target flags merged" true (Dsa.Arena.is_persistent a t2)

let test_arena_unify_idempotent () =
  let a = Dsa.Arena.create () in
  let n1 = Dsa.Arena.fresh a () and n2 = Dsa.Arena.fresh a () in
  Dsa.Arena.unify a n1 n2;
  Dsa.Arena.unify a n2 n1;
  Dsa.Arena.unify a n1 n1;
  check Alcotest.int "two nodes allocated" 2 (Dsa.Arena.size a);
  check Alcotest.int "one canonical node" 1
    (List.length
       (List.filter
          (fun id -> id < 2)
          (Dsa.Arena.canonical_ids a)))

let test_arena_modref () =
  let a = Dsa.Arena.create () in
  let n = Dsa.Arena.fresh a () in
  Dsa.Arena.add_mod a n (Some "f");
  Dsa.Arena.add_mod a n (Some "f");
  Dsa.Arena.add_ref a n (Some "g");
  let node = Dsa.Arena.canonical a n in
  check Alcotest.int "mod recorded once" 1 (List.length node.Dsa.Arena.mod_fields);
  check Alcotest.int "ref recorded" 1 (List.length node.Dsa.Arena.ref_fields)

(* ------------------------------------------------------------------ *)
(* Aaddr relations *)

let addr ?(field = None) ?(index = Dsa.Aaddr.No_index)
    ?(offset = Dsa.Aaddr.Off_exact 0) node =
  { Dsa.Aaddr.node; field; index; offset }

let test_aaddr_overlap () =
  let open Dsa.Aaddr in
  let whole = addr 1 in
  let f = addr ~field:(Some "f") 1 in
  let g = addr ~field:(Some "g") 1 in
  let other = addr ~field:(Some "f") 2 in
  check Alcotest.bool "whole overlaps field" true (may_overlap whole f);
  check Alcotest.bool "distinct fields disjoint" false (may_overlap f g);
  check Alcotest.bool "distinct objects disjoint" false (may_overlap f other)

let test_aaddr_indexes () =
  let open Dsa.Aaddr in
  let i0 = addr ~field:(Some "a") ~index:(Const_index 0) 1 in
  let i1 = addr ~field:(Some "a") ~index:(Const_index 1) 1 in
  let sym = addr ~field:(Some "a") ~index:(Sym_index "c") 1 in
  check Alcotest.bool "distinct constants disjoint" false (may_overlap i0 i1);
  check Alcotest.bool "symbolic may equal constant" true (may_overlap sym i0);
  check Alcotest.bool "symbolic contained only if equal" false
    (contained_in i0 sym);
  check Alcotest.bool "same symbol contained" true (contained_in sym sym)

let test_aaddr_containment () =
  let open Dsa.Aaddr in
  let whole = addr 1 in
  let f = addr ~field:(Some "f") 1 in
  check Alcotest.bool "field in whole" true (contained_in f whole);
  check Alcotest.bool "whole not in field" false (contained_in whole f);
  check Alcotest.bool "whole in whole" true (contained_in whole whole)

(* containment implies overlap — checked over random addresses *)
let aaddr_gen =
  QCheck.Gen.(
    let* node = int_range 0 2 in
    let* field = oneofl [ None; Some "f"; Some "g" ] in
    let* index =
      oneofl
        [ Dsa.Aaddr.No_index; Dsa.Aaddr.Const_index 0; Dsa.Aaddr.Const_index 1;
          Dsa.Aaddr.Sym_index "i"; Dsa.Aaddr.Sym_index "j" ]
    in
    let* offset =
      oneofl
        [ Dsa.Aaddr.Off_exact 0; Dsa.Aaddr.Off_exact 1; Dsa.Aaddr.Off_exact 4;
          Dsa.Aaddr.off_stride ~base:0 ~stride:4;
          Dsa.Aaddr.off_stride ~base:1 ~stride:2; Dsa.Aaddr.Off_top ]
    in
    return { Dsa.Aaddr.node; field; index; offset })

let aaddr_arb = QCheck.make ~print:(Fmt.str "%a" Dsa.Aaddr.pp) aaddr_gen

let prop_containment_implies_overlap =
  QCheck.Test.make ~name:"contained_in implies may_overlap" ~count:500
    (QCheck.pair aaddr_arb aaddr_arb)
    (fun (a, b) ->
      (not (Dsa.Aaddr.contained_in a b)) || Dsa.Aaddr.may_overlap a b)

let prop_equal_implies_contained =
  QCheck.Test.make ~name:"equal implies contained both ways" ~count:500
    (QCheck.pair aaddr_arb aaddr_arb)
    (fun (a, b) ->
      (not (Dsa.Aaddr.equal a b))
      || (Dsa.Aaddr.contained_in a b && Dsa.Aaddr.contained_in b a))

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"may_overlap is symmetric" ~count:500
    (QCheck.pair aaddr_arb aaddr_arb)
    (fun (a, b) -> Dsa.Aaddr.may_overlap a b = Dsa.Aaddr.may_overlap b a)

(* ------------------------------------------------------------------ *)
(* Offset congruence lattice: soundness against the concretization
   [off_mem] (is the concrete offset n a member of the abstract set?) *)

let off_mem n = function
  | Dsa.Aaddr.Off_exact c -> n = c
  | Dsa.Aaddr.Off_stride { base; stride } -> (n - base) mod stride = 0
  | Dsa.Aaddr.Off_top -> true

let offset_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Dsa.Aaddr.Off_exact n) (int_range (-8) 8);
        map2
          (fun base stride -> Dsa.Aaddr.off_stride ~base ~stride)
          (int_range (-5) 5) (int_range 1 6);
        return Dsa.Aaddr.Off_top;
      ])

let offset_arb =
  QCheck.make ~print:(Fmt.str "%a" Dsa.Aaddr.pp_offset) offset_gen

let small_int = QCheck.int_range (-24) 24

let prop_off_join_upper_bound =
  QCheck.Test.make ~name:"off_join is an upper bound (off_leq)" ~count:500
    (QCheck.pair offset_arb offset_arb)
    (fun (a, b) ->
      let j = Dsa.Aaddr.off_join a b in
      Dsa.Aaddr.off_leq a j && Dsa.Aaddr.off_leq b j)

let prop_off_join_monotone =
  QCheck.Test.make ~name:"off_join monotone w.r.t. off_leq" ~count:500
    (QCheck.triple offset_arb offset_arb offset_arb)
    (fun (a, b, c) ->
      (not (Dsa.Aaddr.off_leq a b))
      || Dsa.Aaddr.off_leq (Dsa.Aaddr.off_join a c) (Dsa.Aaddr.off_join b c))

let prop_off_leq_is_subset =
  QCheck.Test.make ~name:"off_leq implies membership subset" ~count:500
    (QCheck.triple offset_arb offset_arb small_int)
    (fun (a, b, n) ->
      (not (Dsa.Aaddr.off_leq a b)) || (not (off_mem n a)) || off_mem n b)

let prop_off_add_sound =
  QCheck.Test.make ~name:"off_add sound on members" ~count:500
    (QCheck.quad offset_arb offset_arb small_int small_int)
    (fun (a, b, x, y) ->
      (not (off_mem x a && off_mem y b))
      || off_mem (x + y) (Dsa.Aaddr.off_add a b))

let prop_off_mul_sound =
  QCheck.Test.make ~name:"off_mul sound on members" ~count:500
    (QCheck.quad offset_arb offset_arb small_int small_int)
    (fun (a, b, x, y) ->
      (not (off_mem x a && off_mem y b))
      || off_mem (x * y) (Dsa.Aaddr.off_mul a b))

let prop_off_may_equal_complete =
  QCheck.Test.make ~name:"shared member implies off_may_equal" ~count:500
    (QCheck.triple offset_arb offset_arb small_int)
    (fun (a, b, n) ->
      (not (off_mem n a && off_mem n b)) || Dsa.Aaddr.off_may_equal a b)

(* ------------------------------------------------------------------ *)
(* DSG construction: the Figure 9 / Figure 10 example *)

let nvm_lock_prog () =
  Nvmir.Parser.parse
    {|
struct lkrec { state: int, new_level: int }
struct amutex { owners: int, level: int }
func nvm_lock(omutex: ptr amutex) {
entry:
  mutex = omutex
  lk = alloc pmem lkrec
  store lk->state, 1
  persist exact lk->state
  store mutex->owners, 0
  persist exact mutex->owners
  ret
}
func driver() {
entry:
  m = alloc pmem amutex
  call nvm_lock(m)
  ret
}
|}

let test_dsg_alloc_is_persistent () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  check Alcotest.bool "lk persistent" true
    (Dsa.Dsg.is_persistent_place dsg ~fname:"nvm_lock" (Nvmir.Place.var "lk"))

let test_dsg_param_persistence_flows_from_caller () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  (* omutex's persistence is only known from the caller's allocation
     (the top-down information of §4.2) *)
  check Alcotest.bool "omutex persistent via caller" true
    (Dsa.Dsg.is_persistent_place dsg ~fname:"nvm_lock"
       (Nvmir.Place.var "omutex"))

let test_dsg_assignment_aliases () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  let n1 = Dsa.Dsg.node_of_var dsg ~fname:"nvm_lock" "omutex" in
  let n2 = Dsa.Dsg.node_of_var dsg ~fname:"nvm_lock" "mutex" in
  check Alcotest.bool "mutex = omutex alias" true (n1 = n2 && n1 <> None);
  check Alcotest.bool "distinct from lk" true
    (n1 <> Dsa.Dsg.node_of_var dsg ~fname:"nvm_lock" "lk")

let test_dsg_caller_callee_same_node () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  let caller = Dsa.Dsg.node_of_var dsg ~fname:"driver" "m" in
  let callee = Dsa.Dsg.node_of_var dsg ~fname:"nvm_lock" "omutex" in
  check Alcotest.bool "argument and parameter unified" true
    (caller = callee && caller <> None)

let test_dsg_modref () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  match Dsa.Dsg.node_of_var dsg ~fname:"nvm_lock" "lk" with
  | None -> Alcotest.fail "lk unbound"
  | Some n ->
    check Alcotest.bool "state modified" true
      (List.mem (Some "state") (Dsa.Dsg.modified_fields dsg n))

let test_dsg_field_sensitivity_switch () =
  let prog = nvm_lock_prog () in
  let fs = Dsa.Dsg.build ~field_sensitive:true prog in
  let fi = Dsa.Dsg.build ~field_sensitive:false prog in
  let a_state =
    Dsa.Dsg.resolve fs ~fname:"nvm_lock" (Nvmir.Place.field "lk" "state")
  in
  let a_level =
    Dsa.Dsg.resolve fs ~fname:"nvm_lock" (Nvmir.Place.field "lk" "new_level")
  in
  check Alcotest.bool "fields distinct when sensitive" false
    (Dsa.Aaddr.may_overlap a_state a_level);
  let b_state =
    Dsa.Dsg.resolve fi ~fname:"nvm_lock" (Nvmir.Place.field "lk" "state")
  in
  let b_level =
    Dsa.Dsg.resolve fi ~fname:"nvm_lock" (Nvmir.Place.field "lk" "new_level")
  in
  check Alcotest.bool "fields collapse when insensitive" true
    (Dsa.Aaddr.may_overlap b_state b_level)

let test_dsg_addr_of_cell () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func f() {
entry:
  p = alloc pmem s
  a = addr p->f
  store a, 1
  ret
}
|}
  in
  let dsg = Dsa.Dsg.build prog in
  let through_cell = Dsa.Dsg.resolve dsg ~fname:"f" (Nvmir.Place.var "a") in
  let direct = Dsa.Dsg.resolve dsg ~fname:"f" (Nvmir.Place.field "p" "f") in
  check Alcotest.bool "store through &p->f writes p.f" true
    (Dsa.Aaddr.equal through_cell direct);
  check Alcotest.bool "cell is persistent" true
    (Dsa.Dsg.is_persistent_addr dsg through_cell)

let pointer_arith_prog () =
  Nvmir.Parser.parse
    {|
struct s { f: int, g: int }
func f() {
entry:
  p = alloc pmem s
  q = p + 0
  r = p + 4
  store q->f, 1
  ret
}
|}

(* Historically [q = p + 0] laundered the pointer into a fresh unknown
   node (the §5.4 blind spot). The offset lattice resolves it: q IS p,
   while [r = p + 4] stays a distinct, disjoint element address. *)
let test_dsg_pointer_arith_resolved () =
  let prog = pointer_arith_prog () in
  let dsg = Dsa.Dsg.build prog in
  let qf = Dsa.Dsg.resolve dsg ~fname:"f" (Nvmir.Place.field "q" "f") in
  let pf = Dsa.Dsg.resolve dsg ~fname:"f" (Nvmir.Place.field "p" "f") in
  let rf = Dsa.Dsg.resolve dsg ~fname:"f" (Nvmir.Place.field "r" "f") in
  check Alcotest.bool "q->f is p->f" true (Dsa.Aaddr.equal qf pf);
  check Alcotest.bool "laundered pointer is persistent" true
    (Dsa.Dsg.is_persistent_place dsg ~fname:"f" (Nvmir.Place.field "q" "f"));
  check Alcotest.bool "same object through offset" true
    (Dsa.Aaddr.same_object rf pf);
  check Alcotest.bool "p+4 field disjoint from p's" false
    (Dsa.Aaddr.may_overlap rf pf)

(* The ablation switch reproduces the legacy opacity exactly — the
   injection/fuzzing benches regenerate the historical blind-spot
   corpus with it. *)
let test_dsg_pointer_arith_ablated () =
  let prog = pointer_arith_prog () in
  let dsg = Dsa.Dsg.build ~offset_sensitive:false prog in
  check Alcotest.bool "laundered pointer not persistent" false
    (Dsa.Dsg.is_persistent_place dsg ~fname:"f" (Nvmir.Place.field "q" "f"))

(* An element offset rides down a chain of calls: [g]'s parameter is
   widened by [main]'s argument only after [g]'s own call to [h] was
   applied bottom-up, so it is the top-down phase that carries the
   offset on to [h]. *)
let offset_chain_src =
  {|
struct s { f: int, g: int }
func h(b: ptr s) {
entry:
  store b->f, 1
  persist exact b->f
  ret
}
func g(a: ptr s) {
entry:
  call h(a)
  ret
}
func main() {
entry:
  p = alloc pmem s
  q = p + 4
  call g(q)
  store p->f, 2
  persist exact p->f
  ret
}
|}

let test_dsg_offset_call_chain () =
  let dsg = Dsa.Dsg.build (Nvmir.Parser.parse offset_chain_src) in
  let at fname v =
    Fmt.str "%a" Dsa.Aaddr.pp
      (Dsa.Dsg.resolve dsg ~fname (Nvmir.Place.field v "f"))
  in
  (* [g]'s parameter holds offset 0 (its entry binding) and 4 *)
  check Alcotest.string "g's parameter is widened" "n1+0+k*4.f" (at "g" "a");
  check Alcotest.string "so is h's, one call further down" "n1+0+k*4.f"
    (at "h" "b")

let test_dsg_may_alias () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  check Alcotest.bool "same field aliases" true
    (Dsa.Dsg.may_alias dsg ~fname:"nvm_lock"
       (Nvmir.Place.field "mutex" "owners")
       (Nvmir.Place.field "omutex" "owners"));
  check Alcotest.bool "different objects do not" false
    (Dsa.Dsg.may_alias dsg ~fname:"nvm_lock"
       (Nvmir.Place.field "mutex" "owners")
       (Nvmir.Place.field "lk" "state"))

let test_dsg_function_view () =
  let dsg = Dsa.Dsg.build (nvm_lock_prog ()) in
  (* nvm_lock reaches exactly two persistent objects: lk and the mutex *)
  check Alcotest.int "two persistent nodes" 2
    (List.length (Dsa.Dsg.function_view dsg ~fname:"nvm_lock"))

let suite =
  [
    tc "arena: unify merges flags" `Quick test_arena_unify_merges_flags;
    tc "arena: unify merges edges recursively" `Quick
      test_arena_unify_merges_edges_recursively;
    tc "arena: unify is idempotent" `Quick test_arena_unify_idempotent;
    tc "arena: mod/ref dedup" `Quick test_arena_modref;
    tc "aaddr: overlap" `Quick test_aaddr_overlap;
    tc "aaddr: index sensitivity" `Quick test_aaddr_indexes;
    tc "aaddr: containment" `Quick test_aaddr_containment;
    QCheck_alcotest.to_alcotest prop_containment_implies_overlap;
    QCheck_alcotest.to_alcotest prop_equal_implies_contained;
    QCheck_alcotest.to_alcotest prop_overlap_symmetric;
    QCheck_alcotest.to_alcotest prop_off_join_upper_bound;
    QCheck_alcotest.to_alcotest prop_off_join_monotone;
    QCheck_alcotest.to_alcotest prop_off_leq_is_subset;
    QCheck_alcotest.to_alcotest prop_off_add_sound;
    QCheck_alcotest.to_alcotest prop_off_mul_sound;
    QCheck_alcotest.to_alcotest prop_off_may_equal_complete;
    tc "dsg: allocation persistence" `Quick test_dsg_alloc_is_persistent;
    tc "dsg: top-down persistence" `Quick
      test_dsg_param_persistence_flows_from_caller;
    tc "dsg: assignment aliasing" `Quick test_dsg_assignment_aliases;
    tc "dsg: bottom-up arg/param unification" `Quick
      test_dsg_caller_callee_same_node;
    tc "dsg: mod/ref summaries" `Quick test_dsg_modref;
    tc "dsg: field-sensitivity switch" `Quick test_dsg_field_sensitivity_switch;
    tc "dsg: address-of field cells" `Quick test_dsg_addr_of_cell;
    tc "dsg: pointer arithmetic resolved" `Quick
      test_dsg_pointer_arith_resolved;
    tc "dsg: pointer arithmetic ablated" `Quick
      test_dsg_pointer_arith_ablated;
    tc "dsg: offsets widen down a call chain" `Quick test_dsg_offset_call_chain;
    tc "dsg: may_alias" `Quick test_dsg_may_alias;
    tc "dsg: per-function view" `Quick test_dsg_function_view;
  ]
