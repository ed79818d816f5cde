(* Data Structure Graph construction (§4.2).

   Three phases, mirroring the paper:

   - Local analysis: one pass over each function creating nodes at
     allocation sites, binding pointer variables to nodes, adding
     field-sensitive points-to edges, and recording mod/ref fields.
   - Bottom-up analysis: the call graph is traversed in post-order
     (callees before callers); at each call site, argument nodes are
     unified with the callee's parameter nodes and return values with
     call destinations, so callee effects (mod/ref, persistence,
     points-to structure) become visible to callers.
   - Top-down analysis: caller knowledge (notably: which parameters
     receive persistent objects) flows into callees. With the
     unification-based core, flag propagation is already bidirectional,
     so this phase finalizes the graph: it computes, per function, the
     set of persistent nodes its variables can reach and prunes
     volatile-only bookkeeping from the exported view.

   Deviation from the paper, recorded in DESIGN.md: the original DSA
   clones callee graphs per call site (full context sensitivity); we
   unify at call boundaries instead (context-insensitive, Steensgaard-
   style across calls, field-sensitive throughout). The corpus's helper
   functions have few call sites, so checking precision is unaffected;
   conservatism surfaces as the same kind of false positives §5.4
   discusses.

   Field sensitivity is a build switch so the evaluation can ablate it
   (the paper credits field sensitivity for 31% of the performance
   bugs). Offset sensitivity — symbolic element offsets through pointer
   arithmetic, closing the §5.4 memory-dependence blind spot — is a
   second, independent switch: ablating it reproduces the historical
   behavior where ref-typed [Binop] results were dropped, which the
   injection/fuzzing benches use to regenerate the legacy
   false-negative corpus. *)

type t = {
  arena : Arena.t;
  prog : Nvmir.Prog.t;
  cg : Graphs.Callgraph.t;
  bindings : (string * string, int) Hashtbl.t; (* (fname, var) -> node *)
  offsets : (string * string, Aaddr.offset) Hashtbl.t;
      (* element offset carried by a pointer binding; absent = exactly 0 *)
  ints : (string * string, Aaddr.offset) Hashtbl.t;
      (* integer-valued variables, abstracted in the same congruence
         lattice so [i * 4] feeds strides into pointer offsets *)
  ret_nodes : (string, int) Hashtbl.t;
  ret_offsets : (string, Aaddr.offset) Hashtbl.t;
  cells : (int, ((Arena.field_key * Aaddr.offset) * int) list ref) Hashtbl.t;
      (* field-cell nodes per object node (for address-of) *)
  cell_backref : (int, int * Arena.field_key * Aaddr.offset) Hashtbl.t;
      (* cell node -> (object node, field, element offset) *)
  field_sensitive : bool;
  offset_sensitive : bool;
  mutable recording : bool; (* record mod/ref during local phase only *)
}

let field_sensitive t = t.field_sensitive
let offset_sensitive t = t.offset_sensitive
let arena t = t.arena

let key t f = if t.field_sensitive then Some f else None

let binding t ~fname var = Hashtbl.find_opt t.bindings (fname, var)

let bind t ~fname var node =
  Arena.add_name t.arena node var;
  Hashtbl.replace t.bindings (fname, var) node;
  (* a (re)bind resets the variable to a plain pointer at offset 0 and
     forgets any stale integer abstraction *)
  Hashtbl.remove t.offsets (fname, var);
  Hashtbl.remove t.ints (fname, var)

let binding_or_fresh t ~fname var =
  match binding t ~fname var with
  | Some n -> n
  | None ->
    let n = Arena.fresh t.arena ~unknown:true () in
    bind t ~fname var n;
    n

(* Element offset carried by a pointer binding. Absent means exactly 0 —
   the state of every binding before any pointer arithmetic touches
   it. *)
let var_offset t ~fname var =
  if not t.offset_sensitive then Aaddr.Off_exact 0
  else
    match Hashtbl.find_opt t.offsets (fname, var) with
    | Some o -> o
    | None -> Aaddr.Off_exact 0

let set_var_offset t ~fname var o =
  match o with
  | Aaddr.Off_exact 0 -> Hashtbl.remove t.offsets (fname, var)
  | _ -> Hashtbl.replace t.offsets (fname, var) o

(* Rebinding joins: the bindings table is flow-insensitive, so a
   variable's offset abstracts every value it holds anywhere in the
   function. *)
let join_var_offset t ~fname var o =
  set_var_offset t ~fname var (Aaddr.off_join (var_offset t ~fname var) o)

(* Field cells: distinct nodes denoting the address of object.field, so
   that [x = addr p->f] followed by stores through [x] resolves back to
   writes of p.f. *)
let cell_of t obj_node k off =
  let root = Arena.find t.arena obj_node in
  let cells =
    match Hashtbl.find_opt t.cells root with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.cells root r;
      r
  in
  match List.assoc_opt (k, off) !cells with
  | Some c -> c
  | None ->
    let c = Arena.fresh t.arena () in
    Hashtbl.replace t.cell_backref c (root, k, off);
    cells := ((k, off), c) :: !cells;
    c

let cell_backref t node =
  match Hashtbl.find_opt t.cell_backref (Arena.find t.arena node) with
  | Some (obj, k, off) -> Some (Arena.find t.arena obj, k, off)
  | None ->
    (* the canonical id may differ from the id the backref was filed
       under; scan is acceptable because cells are rare *)
    Hashtbl.fold
      (fun c (obj, k, off) acc ->
        if acc = None && Arena.find t.arena c = Arena.find t.arena node then
          Some (Arena.find t.arena obj, k, off)
        else acc)
      t.cell_backref None

let index_of_operand = function
  | Nvmir.Operand.Const n -> Aaddr.Const_index n
  | Nvmir.Operand.Var v -> Aaddr.Sym_index v
  | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null -> Aaddr.No_index

(* Resolve a place to an abstract address, creating unknown nodes for
   unresolved pointer hops (conservative, per §5.4). The base binding's
   element offset rides on the address as long as resolution stays
   within the base object; any pointer hop through an edge lands on a
   fresh pointee whose offset is exactly 0 again. *)
let resolve t ~fname (place : Nvmir.Place.t) : Aaddr.t =
  let base_node = binding_or_fresh t ~fname (Nvmir.Place.base place) in
  let start_node, carried, base_off =
    match cell_backref t base_node with
    | Some (obj, k, off) -> (obj, k, off)
    | None ->
      ( Arena.find t.arena base_node,
        None,
        var_offset t ~fname (Nvmir.Place.base place) )
  in
  let rec walk node carried off path : Aaddr.t =
    match (path : Nvmir.Place.access list) with
    | [] -> { Aaddr.node; field = carried; index = Aaddr.No_index; offset = off }
    | [ Nvmir.Place.Field f ] -> (
      match carried with
      | None ->
        { Aaddr.node; field = key t f; index = Aaddr.No_index; offset = off }
      | Some cf ->
        (* pointer hop through the carried field, then select f *)
        let next = Arena.ensure_edge t.arena node (Some cf) in
        {
          Aaddr.node = next;
          field = key t f;
          index = Aaddr.No_index;
          offset = Aaddr.Off_exact 0;
        })
    | [ Nvmir.Place.Index i ] ->
      { Aaddr.node; field = carried; index = index_of_operand i; offset = off }
    | [ Nvmir.Place.Field f; Nvmir.Place.Index i ] when carried = None ->
      { Aaddr.node; field = key t f; index = index_of_operand i; offset = off }
    | Nvmir.Place.Field f :: rest ->
      let node, off =
        match carried with
        | None -> (node, off)
        | Some cf -> (Arena.ensure_edge t.arena node (Some cf), Aaddr.Off_exact 0)
      in
      (* a field followed by more accesses: if the next access is an
         index and then nothing, handled above; otherwise this field is
         a pointer we dereference *)
      (match rest with
      | [ Nvmir.Place.Index i ] ->
        { Aaddr.node; field = key t f; index = index_of_operand i; offset = off }
      | _ ->
        walk
          (Arena.ensure_edge t.arena node (key t f))
          None (Aaddr.Off_exact 0) rest)
    | Nvmir.Place.Index _ :: rest ->
      (* indexing stays within the same abstract object *)
      walk node carried off rest
  in
  let addr = walk start_node carried base_off (Nvmir.Place.path place) in
  { addr with Aaddr.node = Arena.find t.arena addr.Aaddr.node }

(* Resolve with a flush extent: [Object] widens the address to the whole
   containing object; [Bytes _] behaves like a whole-buffer flush of the
   addressed region. *)
let resolve_extent t ~fname place (extent : Nvmir.Instr.extent) : Aaddr.t =
  let addr = resolve t ~fname place in
  match extent with
  | Nvmir.Instr.Exact -> addr
  | Nvmir.Instr.Object -> Aaddr.whole addr.Aaddr.node
  | Nvmir.Instr.Bytes _ ->
    (* byte-extent flushes cover the addressed field/buffer; we keep
       the field component so adjacent-object flushes stay disjoint *)
    { addr with Aaddr.index = Aaddr.No_index }

let is_persistent_addr t (a : Aaddr.t) = Arena.is_persistent t.arena a.Aaddr.node

let is_persistent_place t ~fname place =
  is_persistent_addr t (resolve t ~fname place)

let record_mod t (a : Aaddr.t) =
  if t.recording then Arena.add_mod t.arena a.Aaddr.node a.Aaddr.field

let record_ref t (a : Aaddr.t) =
  if t.recording then Arena.add_ref t.arena a.Aaddr.node a.Aaddr.field

(* ------------------------------------------------------------------ *)
(* Phase 1: local analysis *)

let clear_binding t ~fname var =
  Hashtbl.remove t.bindings (fname, var);
  Hashtbl.remove t.offsets (fname, var);
  Hashtbl.remove t.ints (fname, var)

(* Ref-typed [Binop] results — the §5.4 memory-dependence blind spot.
   [q = p + k] binds q to p's node shifted by k elements in the offset
   lattice instead of dropping the result on the floor, so accesses
   through q resolve onto p's object. Integer results stay abstracted
   in the same lattice, which is how [i * 4] later feeds a stride into
   a pointer offset. Ill-typed operand mixes (ref + ref, int - ref,
   ref in mul/div) produce no binding at all: the variable degrades to
   a fresh unknown node on first use, the historical conservative
   treatment — and the interpreter rejects them outright. *)
let local_binop t ~fname dst op lhs rhs =
  let ptr = function
    | Nvmir.Operand.Var v -> (
      match binding t ~fname v with
      | Some n -> Some (n, var_offset t ~fname v)
      | None -> None)
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> None
  in
  let iv = function
    | Nvmir.Operand.Const n -> Aaddr.Off_exact n
    | Nvmir.Operand.Var v -> (
      match Hashtbl.find_opt t.ints (fname, v) with
      | Some o -> o
      | None -> Aaddr.Off_top)
    | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null -> Aaddr.Off_top
  in
  let bind_ptr node off =
    match binding t ~fname dst with
    | Some existing ->
      Arena.unify t.arena existing node;
      Hashtbl.remove t.ints (fname, dst);
      join_var_offset t ~fname dst off
    | None ->
      bind t ~fname dst node;
      set_var_offset t ~fname dst off
  in
  let bind_int o =
    clear_binding t ~fname dst;
    Hashtbl.replace t.ints (fname, dst) o
  in
  match (op : Nvmir.Instr.binop) with
  | Nvmir.Instr.Add -> (
    match (ptr lhs, ptr rhs) with
    | Some (n, o), None -> bind_ptr n (Aaddr.off_add o (iv rhs))
    | None, Some (n, o) -> bind_ptr n (Aaddr.off_add o (iv lhs))
    | Some _, Some _ -> clear_binding t ~fname dst (* ill-typed: ref+ref *)
    | None, None -> bind_int (Aaddr.off_add (iv lhs) (iv rhs)))
  | Nvmir.Instr.Sub -> (
    match (ptr lhs, ptr rhs) with
    | Some (n, o), None -> bind_ptr n (Aaddr.off_sub o (iv rhs))
    | Some (n1, o1), Some (n2, o2) ->
      (* pointer difference: an integer, exact when both offsets are *)
      bind_int
        (if Arena.find t.arena n1 = Arena.find t.arena n2 then
           Aaddr.off_sub o1 o2
         else Aaddr.Off_top)
    | None, Some _ -> clear_binding t ~fname dst (* ill-typed: int-ref *)
    | None, None -> bind_int (Aaddr.off_sub (iv lhs) (iv rhs)))
  | Nvmir.Instr.Mul -> (
    match (ptr lhs, ptr rhs) with
    | None, None -> bind_int (Aaddr.off_mul (iv lhs) (iv rhs))
    | _ -> clear_binding t ~fname dst (* ill-typed: ref in mul *))
  | Nvmir.Instr.Div | Nvmir.Instr.Eq | Nvmir.Instr.Ne | Nvmir.Instr.Lt
  | Nvmir.Instr.Le | Nvmir.Instr.Gt | Nvmir.Instr.Ge | Nvmir.Instr.And
  | Nvmir.Instr.Or ->
    bind_int Aaddr.Off_top

let local_instr t ~fname (i : Nvmir.Instr.t) =
  match i.kind with
  | Nvmir.Instr.Alloc { dst; ty; space } ->
    let persistent = space = Nvmir.Instr.Persistent in
    let pointee =
      match ty with
      | Nvmir.Ty.Ptr inner -> inner
      | other -> other
    in
    let n = Arena.fresh t.arena ~ty:pointee ~persistent ~heap:true () in
    Arena.add_alloc_site t.arena n (fname, i.loc);
    bind t ~fname dst n
  | Nvmir.Instr.Addr_of { dst; src } ->
    let a = resolve t ~fname src in
    let c = cell_of t a.Aaddr.node a.Aaddr.field a.Aaddr.offset in
    bind t ~fname dst c
  | Nvmir.Instr.Store { dst; src } -> (
    let a = resolve t ~fname dst in
    record_mod t a;
    match src with
    | Nvmir.Operand.Var v -> (
      match binding t ~fname v with
      | Some src_node ->
        (* storing a pointer: add/unify the points-to edge *)
        let tgt = Arena.ensure_edge t.arena a.Aaddr.node a.Aaddr.field in
        Arena.unify t.arena tgt src_node
      | None -> ())
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> ())
  | Nvmir.Instr.Load { dst; src } ->
    let a = resolve t ~fname src in
    record_ref t a;
    let tgt = Arena.ensure_edge t.arena a.Aaddr.node a.Aaddr.field in
    bind t ~fname dst tgt
  | Nvmir.Instr.Assign { dst; src } -> (
    match src with
    | Nvmir.Operand.Var v
      when t.offset_sensitive
           && binding t ~fname v = None
           && Hashtbl.mem t.ints (fname, v) ->
      (* integer copy: don't conjure a phantom pointer binding for [v],
         and drop any stale points-to binding of [dst] *)
      clear_binding t ~fname dst;
      Hashtbl.replace t.ints (fname, dst) (Hashtbl.find t.ints (fname, v))
    | Nvmir.Operand.Var v ->
      let n = binding_or_fresh t ~fname v in
      (match binding t ~fname dst with
      | Some existing ->
        Arena.unify t.arena existing n;
        if t.offset_sensitive then
          join_var_offset t ~fname dst (var_offset t ~fname v)
      | None ->
        bind t ~fname dst n;
        if t.offset_sensitive then
          set_var_offset t ~fname dst (var_offset t ~fname v))
    | Nvmir.Operand.Const n when t.offset_sensitive ->
      (* non-pointer reassignment: keeping the old points-to binding
         would make later loads through [dst] alias stale nodes *)
      clear_binding t ~fname dst;
      Hashtbl.replace t.ints (fname, dst) (Aaddr.Off_exact n)
    | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      when t.offset_sensitive ->
      clear_binding t ~fname dst
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> ())
  | Nvmir.Instr.Binop { dst; op; lhs; rhs } ->
    if t.offset_sensitive then local_binop t ~fname dst op lhs rhs
  | Nvmir.Instr.Flush { target; extent } | Nvmir.Instr.Persist { target; extent }
    ->
    let a = resolve_extent t ~fname target extent in
    record_ref t a
  | Nvmir.Instr.Tx_add { target; extent } ->
    let a = resolve_extent t ~fname target extent in
    record_ref t a
  (* CRC guards read their range but define an integer/boolean local,
     never a pointer *)
  | Nvmir.Instr.Crc_of { dst; target; extent } ->
    let a = resolve_extent t ~fname target extent in
    record_ref t a;
    if t.offset_sensitive then clear_binding t ~fname dst
  | Nvmir.Instr.Crc_check { dst; target; extent; crc } ->
    let a = resolve_extent t ~fname target extent in
    record_ref t a;
    record_ref t (resolve t ~fname crc);
    if t.offset_sensitive then clear_binding t ~fname dst
  | Nvmir.Instr.Fence | Nvmir.Instr.Tx_begin
  | Nvmir.Instr.Tx_end | Nvmir.Instr.Epoch_begin | Nvmir.Instr.Epoch_end
  | Nvmir.Instr.Strand_begin _ | Nvmir.Instr.Strand_end _ | Nvmir.Instr.Call _
  | Nvmir.Instr.Comment _ -> ()

let local_phase t =
  t.recording <- true;
  List.iter
    (fun (f : Nvmir.Func.t) ->
      let fname = Nvmir.Func.name f in
      (* parameters: fresh nodes for pointer-typed parameters *)
      List.iter
        (fun (p, ty) ->
          match ty with
          | Nvmir.Ty.Ptr pointee ->
            let n = Arena.fresh t.arena ~ty:pointee () in
            bind t ~fname p n
          | Nvmir.Ty.Int | Nvmir.Ty.Bool | Nvmir.Ty.Named _
          | Nvmir.Ty.Array _ -> ())
        f.params;
      Nvmir.Func.iter_instrs (fun _lbl i -> local_instr t ~fname i) f;
      (* return node, if the function returns a bound pointer *)
      List.iter
        (fun (b : Nvmir.Func.block) ->
          match b.term with
          | Nvmir.Func.Ret (Some (Nvmir.Operand.Var v)) -> (
            match binding t ~fname v with
            | Some n ->
              (match Hashtbl.find_opt t.ret_nodes fname with
              | Some existing -> Arena.unify t.arena existing n
              | None -> Hashtbl.replace t.ret_nodes fname n);
              if t.offset_sensitive then
                Hashtbl.replace t.ret_offsets fname
                  (match Hashtbl.find_opt t.ret_offsets fname with
                  | Some o -> Aaddr.off_join o (var_offset t ~fname v)
                  | None -> var_offset t ~fname v)
            | None -> ())
          | Nvmir.Func.Ret _ | Nvmir.Func.Br _ | Nvmir.Func.Cond_br _ -> ())
        f.blocks)
    (Nvmir.Prog.funcs t.prog);
  t.recording <- false

(* ------------------------------------------------------------------ *)
(* Phase 2: bottom-up analysis *)

let apply_call_site t ~caller (i : Nvmir.Instr.t) =
  match i.kind with
  | Nvmir.Instr.Call { dst; callee; args } -> (
    match Nvmir.Prog.find_func t.prog callee with
    | None -> () (* external function: no summary *)
    | Some cf ->
      let params = cf.params in
      List.iteri
        (fun idx arg ->
          match (arg, List.nth_opt params idx) with
          | Nvmir.Operand.Var v, Some (p, Nvmir.Ty.Ptr _) ->
            let arg_node = binding_or_fresh t ~fname:caller v in
            let param_node = binding_or_fresh t ~fname:callee p in
            Arena.unify t.arena arg_node param_node;
            (* an argument carrying a nonzero element offset widens the
               parameter's offset (idempotent across repeat visits) *)
            if t.offset_sensitive then begin
              match var_offset t ~fname:caller v with
              | Aaddr.Off_exact 0 -> ()
              | o -> join_var_offset t ~fname:callee p o
            end
          | _, _ -> ())
        args;
      match (dst, Hashtbl.find_opt t.ret_nodes callee) with
      | Some d, Some rn ->
        let ret_off () =
          match Hashtbl.find_opt t.ret_offsets callee with
          | Some o -> o
          | None -> Aaddr.Off_exact 0
        in
        (match binding t ~fname:caller d with
        | Some existing ->
          Arena.unify t.arena existing rn;
          if t.offset_sensitive then
            join_var_offset t ~fname:caller d (ret_off ())
        | None ->
          bind t ~fname:caller d rn;
          if t.offset_sensitive then
            set_var_offset t ~fname:caller d (ret_off ()))
      | _, _ -> ())
  | _ -> ()

let bottom_up_phase t =
  List.iter
    (fun fname ->
      match Nvmir.Prog.find_func t.prog fname with
      | None -> ()
      | Some f ->
        Nvmir.Func.iter_instrs (fun _lbl i -> apply_call_site t ~caller:fname i) f)
    (Graphs.Callgraph.postorder t.cg)

(* ------------------------------------------------------------------ *)
(* Phase 3: top-down analysis *)

(* With unification the persistence flags have already flowed through
   call boundaries in both directions. The top-down pass revisits call
   sites in reverse post-order (callers first) to catch bindings created
   late during phase 2, then propagates persistence through field cells:
   a cell addressing a field of a persistent object is itself
   persistent. *)
let top_down_phase t =
  let order = List.rev (Graphs.Callgraph.postorder t.cg) in
  List.iter
    (fun fname ->
      match Nvmir.Prog.find_func t.prog fname with
      | None -> ()
      | Some f ->
        Nvmir.Func.iter_instrs (fun _lbl i -> apply_call_site t ~caller:fname i) f)
    order;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun cell (obj, _k, _off) ->
        if
          Arena.is_persistent t.arena obj
          && not (Arena.is_persistent t.arena cell)
        then begin
          Arena.set_persistent t.arena cell;
          changed := true
        end)
      t.cell_backref;
    (* persistence also flows along points-to edges out of persistent
       objects' pointer fields when the target was heap-allocated from
       pmem elsewhere; unification already covers the common case. *)
  done

(* ------------------------------------------------------------------ *)

(* [persistent_roots] marks additional variables as pointing to
   persistent memory — the "interface annotations" of §4.1 by which
   users tell DeepMC which externally-created objects live in NVM.
   Each entry is (function, variable). *)
let build ?(field_sensitive = true) ?(offset_sensitive = true)
    ?(persistent_roots = []) prog =
  let t =
    {
      arena = Arena.create ();
      prog;
      cg = Graphs.Callgraph.of_prog prog;
      bindings = Hashtbl.create 64;
      offsets = Hashtbl.create 16;
      ints = Hashtbl.create 16;
      ret_nodes = Hashtbl.create 16;
      ret_offsets = Hashtbl.create 16;
      cells = Hashtbl.create 16;
      cell_backref = Hashtbl.create 16;
      field_sensitive;
      offset_sensitive;
      recording = false;
    }
  in
  local_phase t;
  List.iter
    (fun (fname, var) ->
      let n = binding_or_fresh t ~fname var in
      Arena.set_persistent t.arena n)
    persistent_roots;
  bottom_up_phase t;
  top_down_phase t;
  t

(* ------------------------------------------------------------------ *)
(* Queries and dumps *)

let node_of_var t ~fname var =
  Option.map (Arena.find t.arena) (binding t ~fname var)

let may_alias t ~fname p1 p2 =
  Aaddr.may_overlap (resolve t ~fname p1) (resolve t ~fname p2)

let modified_fields t node = (Arena.canonical t.arena node).Arena.mod_fields

(* Nodes a function's variables can reach, persistent ones only: the
   per-function DSG view of Figure 10. *)
let function_view t ~fname =
  let seen = Hashtbl.create 16 in
  let rec visit node =
    let root = Arena.find t.arena node in
    if not (Hashtbl.mem seen root) then begin
      Hashtbl.replace seen root ();
      let n = Arena.canonical t.arena root in
      List.iter (fun (_, tgt) -> visit tgt) n.Arena.edges
    end
  in
  Hashtbl.iter
    (fun (fn, _var) node -> if String.equal fn fname then visit node)
    t.bindings;
  Hashtbl.fold
    (fun node () acc ->
      if Arena.is_persistent t.arena node then node :: acc else acc)
    seen []
  |> List.sort Int.compare

let pp_function_view ppf (t, fname) =
  let nodes = function_view t ~fname in
  Fmt.pf ppf "@[<v>DSG of %s (%d persistent node(s))@ %a@]" fname
    (List.length nodes)
    Fmt.(list ~sep:(any "@ ") (fun ppf n -> Arena.pp_node t.arena ppf n))
    nodes

(* Per-function summary hash: everything the rules can observe about
   this function's slice of the DSG. Raw canonical ids go into the
   digest deliberately — warning messages embed them via Aaddr.pp, so
   two builds must agree on ids before any cached warning text may be
   replayed (an id shift is a spurious miss, never a wrong hit). *)
let summary_hash t ~fname =
  let open Nvmir in
  let fk h = function None -> Chash.add_string h "_" | Some f -> Chash.add_string h f in
  let h =
    List.fold_left
      (fun h id ->
        let n = Arena.canonical t.arena id in
        let h = Chash.add_int h n.Arena.id in
        let h =
          match n.Arena.ty with
          | None -> Chash.add_string h "?"
          | Some ty -> Chash.add_string h (Fmt.str "%a" Ty.pp ty)
        in
        let h = Chash.add_int h (if n.Arena.persistent then 1 else 0) in
        let h = List.fold_left fk h (List.sort compare n.Arena.mod_fields) in
        let h = Chash.add_char h '/' in
        let h = List.fold_left fk h (List.sort compare n.Arena.ref_fields) in
        let h = Chash.add_char h '/' in
        List.fold_left
          (fun h (k, tgt) -> Chash.add_int (fk h k) (Arena.find t.arena tgt))
          h
          (List.sort compare n.Arena.edges))
      (Chash.add_string Chash.empty fname)
      (function_view t ~fname)
  in
  (* Nonzero binding offsets change how this function's places resolve,
     so they are part of the observable summary — a warm cache hit with
     different offsets would replay stale warnings. Offset-free
     functions digest nothing extra, keeping their keys stable across
     the introduction of offsets. *)
  let off_digest h (v, o) =
    let h = Chash.add_string h v in
    match o with
    | Aaddr.Off_exact n -> Chash.add_int (Chash.add_char h 'e') n
    | Aaddr.Off_stride { base; stride } ->
      Chash.add_int (Chash.add_int (Chash.add_char h 's') base) stride
    | Aaddr.Off_top -> Chash.add_char h 't'
  in
  Hashtbl.fold
    (fun (fn, v) o acc -> if String.equal fn fname then (v, o) :: acc else acc)
    t.offsets []
  |> List.sort compare
  |> List.fold_left off_digest h
