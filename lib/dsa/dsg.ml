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
   - Top-down analysis: caller knowledge flows into callees. With the
     unification-based core, flag propagation is already bidirectional
     and every call site's argument and parameter nodes are one node
     after the bottom-up phase, so what is left is what unification
     does not carry: element offsets passed down chains of calls
     (callers first), and persistence of field cells, iterated to a
     fixpoint. The per-function view of the persistent nodes a
     function's variables reach is computed on demand
     ([function_view]).

   The build reads the call graph once ([callgraph] hands it to the
   trace plan and the fingerprints), keeps each function's variable
   tables apart so a lookup hashes only the variable name, and stores
   nodes in an array-backed arena.

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

(* One function's variable tables. Every lookup during the build is
   for a variable of a function the caller already holds, so the tables
   are per function, reached once per instruction (or call site), and
   keyed by the bare variable name. *)
type fstate = {
  bindings : (string, int) Hashtbl.t; (* var -> node *)
  mutable offsets : (string, Aaddr.offset) Hashtbl.t option;
      (* element offset carried by a pointer binding; absent = exactly 0 *)
  mutable ints : (string, Aaddr.offset) Hashtbl.t option;
      (* integer-valued variables, abstracted in the same congruence
         lattice so [i * 4] feeds strides into pointer offsets. Both
         tables are made on their first entry: most functions need
         neither *)
  mutable ret_node : int option;
  mutable ret_offset : Aaddr.offset option;
  mutable params : (string * Nvmir.Ty.t) list option;
      (* the parameters, for a function the program defines *)
  mutable calls : call_site list;
      (* the local phase's list of this function's calls of defined
         functions, in instruction order, for the bottom-up phase *)
  mutable offset_edges : (string * fstate * string) list;
      (* (argument, callee, parameter) of this function's pointer
         arguments, in call-site order: the top-down phase re-widens
         parameter offsets along them *)
}

and call_site = {
  dst : string option;
  args : Nvmir.Operand.t list;
  target : fstate;
}

type t = {
  arena : Arena.t;
  prog : Nvmir.Prog.t;
  cg : Graphs.Callgraph.t;
  funcs : (string, fstate) Hashtbl.t;
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
let callgraph t prog =
  if prog == t.prog then t.cg else Graphs.Callgraph.of_prog prog

let key t f = if t.field_sensitive then Some f else None

(* The function's tables, made on first use. Queries after the build
   read through [find_state] instead, which never writes. *)
let state t fname =
  match Hashtbl.find_opt t.funcs fname with
  | Some fs -> fs
  | None ->
    let fs =
      {
        bindings = Hashtbl.create 8;
        offsets = None;
        ints = None;
        ret_node = None;
        ret_offset = None;
        params = None;
        calls = [];
        offset_edges = [];
      }
    in
    Hashtbl.add t.funcs fname fs;
    fs

let binding fs var = Hashtbl.find_opt fs.bindings var

let lookup tbl var =
  match tbl with Some t -> Hashtbl.find_opt t var | None -> None

let forget tbl var = match tbl with Some t -> Hashtbl.remove t var | None -> ()

(* [tbl] with [var] set to [o], made on this first entry if need be *)
let put tbl var o =
  let t = match tbl with Some t -> t | None -> Hashtbl.create 8 in
  Hashtbl.replace t var o;
  Some t

let set_int fs var o = fs.ints <- put fs.ints var o

let bind t fs var node =
  Arena.add_name t.arena node var;
  Hashtbl.replace fs.bindings var node;
  (* a (re)bind resets the variable to a plain pointer at offset 0 and
     forgets any stale integer abstraction *)
  forget fs.offsets var;
  forget fs.ints var

let binding_or_fresh t fs var =
  match binding fs var with
  | Some n -> n
  | None ->
    let n = Arena.fresh t.arena ~unknown:true () in
    bind t fs var n;
    n

(* Element offset carried by a pointer binding. Absent means exactly 0 —
   the state of every binding before any pointer arithmetic touches
   it. *)
let var_offset t fs var =
  if not t.offset_sensitive then Aaddr.Off_exact 0
  else
    match lookup fs.offsets var with
    | Some o -> o
    | None -> Aaddr.Off_exact 0

let set_var_offset fs var o =
  match o with
  | Aaddr.Off_exact 0 -> forget fs.offsets var
  | _ -> fs.offsets <- put fs.offsets var o

(* Rebinding joins: the bindings table is flow-insensitive, so a
   variable's offset abstracts every value it holds anywhere in the
   function. *)
let join_var_offset t fs var o =
  set_var_offset fs var (Aaddr.off_join (var_offset t fs var) o)

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
  let root = Arena.find t.arena node in
  match Hashtbl.find_opt t.cell_backref root with
  | Some (obj, k, off) -> Some (Arena.find t.arena obj, k, off)
  | None when Hashtbl.length t.cell_backref = 0 -> None
  | None ->
    (* the canonical id may differ from the id the backref was filed
       under; scan is acceptable because cells are rare *)
    Hashtbl.fold
      (fun c (obj, k, off) acc ->
        if acc = None && Arena.find t.arena c = root then
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
let resolve_in t fs (place : Nvmir.Place.t) : Aaddr.t =
  let base_node = binding_or_fresh t fs (Nvmir.Place.base place) in
  let start_node, carried, base_off =
    match cell_backref t base_node with
    | Some (obj, k, off) -> (obj, k, off)
    | None ->
      ( Arena.find t.arena base_node,
        None,
        var_offset t fs (Nvmir.Place.base place) )
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

let resolve t ~fname place = resolve_in t (state t fname) place

(* Resolve with a flush extent: [Object] widens the address to the whole
   containing object; [Bytes _] behaves like a whole-buffer flush of the
   addressed region. *)
let resolve_extent_in t fs place (extent : Nvmir.Instr.extent) : Aaddr.t =
  let addr = resolve_in t fs place in
  match extent with
  | Nvmir.Instr.Exact -> addr
  | Nvmir.Instr.Object -> Aaddr.whole addr.Aaddr.node
  | Nvmir.Instr.Bytes _ ->
    (* byte-extent flushes cover the addressed field/buffer; we keep
       the field component so adjacent-object flushes stay disjoint *)
    { addr with Aaddr.index = Aaddr.No_index }

let resolve_extent t ~fname place extent =
  resolve_extent_in t (state t fname) place extent

let is_persistent_addr t (a : Aaddr.t) = Arena.is_persistent t.arena a.Aaddr.node

let is_persistent_place t ~fname place =
  is_persistent_addr t (resolve t ~fname place)

let record_mod t (a : Aaddr.t) =
  if t.recording then Arena.add_mod t.arena a.Aaddr.node a.Aaddr.field

let record_ref t (a : Aaddr.t) =
  if t.recording then Arena.add_ref t.arena a.Aaddr.node a.Aaddr.field

(* ------------------------------------------------------------------ *)
(* Phase 1: local analysis *)

let clear_binding fs var =
  Hashtbl.remove fs.bindings var;
  forget fs.offsets var;
  forget fs.ints var

(* Ref-typed [Binop] results — the §5.4 memory-dependence blind spot.
   [q = p + k] binds q to p's node shifted by k elements in the offset
   lattice instead of dropping the result on the floor, so accesses
   through q resolve onto p's object. Integer results stay abstracted
   in the same lattice, which is how [i * 4] later feeds a stride into
   a pointer offset. Ill-typed operand mixes (ref + ref, int - ref,
   ref in mul/div) produce no binding at all: the variable degrades to
   a fresh unknown node on first use, the historical conservative
   treatment — and the interpreter rejects them outright. *)
let local_binop t fs dst op lhs rhs =
  let ptr = function
    | Nvmir.Operand.Var v -> (
      match binding fs v with
      | Some n -> Some (n, var_offset t fs v)
      | None -> None)
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> None
  in
  let iv = function
    | Nvmir.Operand.Const n -> Aaddr.Off_exact n
    | Nvmir.Operand.Var v -> (
      match lookup fs.ints v with
      | Some o -> o
      | None -> Aaddr.Off_top)
    | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null -> Aaddr.Off_top
  in
  let bind_ptr node off =
    match binding fs dst with
    | Some existing ->
      Arena.unify t.arena existing node;
      forget fs.ints dst;
      join_var_offset t fs dst off
    | None ->
      bind t fs dst node;
      set_var_offset fs dst off
  in
  let bind_int o =
    clear_binding fs dst;
    set_int fs dst o
  in
  match (op : Nvmir.Instr.binop) with
  | Nvmir.Instr.Add -> (
    match (ptr lhs, ptr rhs) with
    | Some (n, o), None -> bind_ptr n (Aaddr.off_add o (iv rhs))
    | None, Some (n, o) -> bind_ptr n (Aaddr.off_add o (iv lhs))
    | Some _, Some _ -> clear_binding fs dst (* ill-typed: ref+ref *)
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
    | None, Some _ -> clear_binding fs dst (* ill-typed: int-ref *)
    | None, None -> bind_int (Aaddr.off_sub (iv lhs) (iv rhs)))
  | Nvmir.Instr.Mul -> (
    match (ptr lhs, ptr rhs) with
    | None, None -> bind_int (Aaddr.off_mul (iv lhs) (iv rhs))
    | _ -> clear_binding fs dst (* ill-typed: ref in mul *))
  | Nvmir.Instr.Div | Nvmir.Instr.Eq | Nvmir.Instr.Ne | Nvmir.Instr.Lt
  | Nvmir.Instr.Le | Nvmir.Instr.Gt | Nvmir.Instr.Ge | Nvmir.Instr.And
  | Nvmir.Instr.Or ->
    bind_int Aaddr.Off_top

let local_instr t fs (i : Nvmir.Instr.t) =
  match i.kind with
  | Nvmir.Instr.Alloc { dst; ty; space } ->
    let persistent = space = Nvmir.Instr.Persistent in
    let pointee =
      match ty with
      | Nvmir.Ty.Ptr inner -> inner
      | other -> other
    in
    let n = Arena.fresh t.arena ~ty:pointee ~persistent ~heap:true () in
    bind t fs dst n
  | Nvmir.Instr.Addr_of { dst; src } ->
    let a = resolve_in t fs src in
    let c = cell_of t a.Aaddr.node a.Aaddr.field a.Aaddr.offset in
    bind t fs dst c
  | Nvmir.Instr.Store { dst; src } -> (
    let a = resolve_in t fs dst in
    record_mod t a;
    match src with
    | Nvmir.Operand.Var v -> (
      match binding fs v with
      | Some src_node ->
        (* storing a pointer: add/unify the points-to edge *)
        let tgt = Arena.ensure_edge t.arena a.Aaddr.node a.Aaddr.field in
        Arena.unify t.arena tgt src_node
      | None -> ())
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> ())
  | Nvmir.Instr.Load { dst; src } ->
    let a = resolve_in t fs src in
    record_ref t a;
    let tgt = Arena.ensure_edge t.arena a.Aaddr.node a.Aaddr.field in
    bind t fs dst tgt
  | Nvmir.Instr.Assign { dst; src } -> (
    match src with
    | Nvmir.Operand.Var v
      when t.offset_sensitive
           && binding fs v = None
           && lookup fs.ints v <> None ->
      (* integer copy: don't conjure a phantom pointer binding for [v],
         and drop any stale points-to binding of [dst] *)
      clear_binding fs dst;
      set_int fs dst (Option.get (lookup fs.ints v))
    | Nvmir.Operand.Var v ->
      let n = binding_or_fresh t fs v in
      (match binding fs dst with
      | Some existing ->
        Arena.unify t.arena existing n;
        if t.offset_sensitive then
          join_var_offset t fs dst (var_offset t fs v)
      | None ->
        bind t fs dst n;
        if t.offset_sensitive then set_var_offset fs dst (var_offset t fs v))
    | Nvmir.Operand.Const n when t.offset_sensitive ->
      (* non-pointer reassignment: keeping the old points-to binding
         would make later loads through [dst] alias stale nodes *)
      clear_binding fs dst;
      set_int fs dst (Aaddr.Off_exact n)
    | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      when t.offset_sensitive ->
      clear_binding fs dst
    | Nvmir.Operand.Const _ | Nvmir.Operand.Bool_const _ | Nvmir.Operand.Null
      -> ())
  | Nvmir.Instr.Binop { dst; op; lhs; rhs } ->
    if t.offset_sensitive then local_binop t fs dst op lhs rhs
  | Nvmir.Instr.Flush { target; extent } | Nvmir.Instr.Persist { target; extent }
    ->
    let a = resolve_extent_in t fs target extent in
    record_ref t a
  | Nvmir.Instr.Tx_add { target; extent } ->
    let a = resolve_extent_in t fs target extent in
    record_ref t a
  (* CRC guards read their range but define an integer/boolean local,
     never a pointer *)
  | Nvmir.Instr.Crc_of { dst; target; extent } ->
    let a = resolve_extent_in t fs target extent in
    record_ref t a;
    if t.offset_sensitive then clear_binding fs dst
  | Nvmir.Instr.Crc_check { dst; target; extent; crc } ->
    let a = resolve_extent_in t fs target extent in
    record_ref t a;
    record_ref t (resolve_in t fs crc);
    if t.offset_sensitive then clear_binding fs dst
  | Nvmir.Instr.Call { dst; callee; args } -> (
    match Hashtbl.find_opt t.funcs callee with
    | Some ({ params = Some _; _ } as target) ->
      fs.calls <- { dst; args; target } :: fs.calls
    | Some _ | None -> () (* external function: no summary *))
  | Nvmir.Instr.Fence | Nvmir.Instr.Tx_begin
  | Nvmir.Instr.Tx_end | Nvmir.Instr.Epoch_begin | Nvmir.Instr.Epoch_end
  | Nvmir.Instr.Strand_begin _ | Nvmir.Instr.Strand_end _
  | Nvmir.Instr.Comment _ -> ()

let local_phase t =
  t.recording <- true;
  let funcs = Nvmir.Prog.funcs t.prog in
  (* every defined function's tables first, so a call site can hold its
     callee's *)
  List.iter
    (fun (f : Nvmir.Func.t) ->
      (state t (Nvmir.Func.name f)).params <- Some f.params)
    funcs;
  List.iter
    (fun (f : Nvmir.Func.t) ->
      let fs = state t (Nvmir.Func.name f) in
      (* parameters: fresh nodes for pointer-typed parameters *)
      List.iter
        (fun (p, ty) ->
          match ty with
          | Nvmir.Ty.Ptr pointee ->
            let n = Arena.fresh t.arena ~ty:pointee () in
            bind t fs p n
          | Nvmir.Ty.Int | Nvmir.Ty.Bool | Nvmir.Ty.Named _
          | Nvmir.Ty.Array _ -> ())
        f.params;
      Nvmir.Func.iter_instrs (fun _lbl i -> local_instr t fs i) f;
      fs.calls <- List.rev fs.calls;
      (* return node, if the function returns a bound pointer *)
      List.iter
        (fun (b : Nvmir.Func.block) ->
          match b.term with
          | Nvmir.Func.Ret (Some (Nvmir.Operand.Var v)) -> (
            match binding fs v with
            | Some n ->
              (match fs.ret_node with
              | Some existing -> Arena.unify t.arena existing n
              | None -> fs.ret_node <- Some n);
              if t.offset_sensitive then
                fs.ret_offset <-
                  Some
                    (match fs.ret_offset with
                    | Some o -> Aaddr.off_join o (var_offset t fs v)
                    | None -> var_offset t fs v)
            | None -> ())
          | Nvmir.Func.Ret _ | Nvmir.Func.Br _ | Nvmir.Func.Cond_br _ -> ())
        f.blocks)
    funcs;
  t.recording <- false

(* ------------------------------------------------------------------ *)
(* Phase 2: bottom-up analysis *)

let apply_call_site t caller { dst; args; target = callee } =
  let params = Option.value ~default:[] callee.params in
  List.iteri
    (fun idx arg ->
      match (arg, List.nth_opt params idx) with
      | Nvmir.Operand.Var v, Some (p, Nvmir.Ty.Ptr _) ->
        let arg_node = binding_or_fresh t caller v in
        let param_node = binding_or_fresh t callee p in
        Arena.unify t.arena arg_node param_node;
        (* an argument carrying a nonzero element offset widens the
           parameter's offset *)
        if t.offset_sensitive then begin
          caller.offset_edges <- (v, callee, p) :: caller.offset_edges;
          match var_offset t caller v with
          | Aaddr.Off_exact 0 -> ()
          | o -> join_var_offset t callee p o
        end
      | _, _ -> ())
    args;
  match (dst, callee.ret_node) with
  | Some d, Some rn ->
    let ret_off = Option.value ~default:(Aaddr.Off_exact 0) callee.ret_offset in
    (match binding caller d with
    | Some existing ->
      Arena.unify t.arena existing rn;
      if t.offset_sensitive then join_var_offset t caller d ret_off
    | None ->
      bind t caller d rn;
      if t.offset_sensitive then set_var_offset caller d ret_off)
  | _, _ -> ()

let bottom_up_phase t =
  List.iter
    (fun fname ->
      match Hashtbl.find_opt t.funcs fname with
      | None -> ()
      | Some caller ->
        List.iter (apply_call_site t caller) caller.calls;
        caller.calls <- [];
        caller.offset_edges <- List.rev caller.offset_edges)
    (Graphs.Callgraph.postorder t.cg)

(* ------------------------------------------------------------------ *)
(* Phase 3: top-down analysis *)

(* With unification the persistence flags have already flowed through
   call boundaries in both directions, and after the bottom-up phase
   every call site's argument and parameter nodes are one node. What
   the bottom-up order cannot do is carry an element offset down a
   chain of calls: a callee's own call sites were applied before its
   callers widened its parameters. So the top-down phase first walks
   the functions in reverse post-order (callers first) and re-widens
   each callee parameter by the offset its argument carries now, along
   the argument-to-parameter edges the bottom-up phase recorded, in
   call-site order. It then propagates persistence through field cells:
   a cell addressing a field of a persistent object is itself
   persistent. *)
let top_down_phase t =
  if t.offset_sensitive then
    List.iter
      (fun fname ->
        match Hashtbl.find_opt t.funcs fname with
        | None -> ()
        | Some caller ->
          List.iter
            (fun (v, callee, p) ->
              match var_offset t caller v with
              | Aaddr.Off_exact 0 -> ()
              | o -> join_var_offset t callee p o)
            caller.offset_edges;
          caller.offset_edges <- [])
      (List.rev (Graphs.Callgraph.postorder t.cg));
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
      t.cell_backref
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
      funcs = Hashtbl.create 64;
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
      let n = binding_or_fresh t (state t fname) var in
      Arena.set_persistent t.arena n)
    persistent_roots;
  bottom_up_phase t;
  top_down_phase t;
  t

(* ------------------------------------------------------------------ *)
(* Queries and dumps *)

let find_state t fname = Hashtbl.find_opt t.funcs fname

let node_of_var t ~fname var =
  Option.bind (find_state t fname) (fun fs ->
      Option.map (Arena.find t.arena) (binding fs var))

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
  Option.iter
    (fun fs -> Hashtbl.iter (fun _var node -> visit node) fs.bindings)
    (find_state t fname);
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
  (match find_state t fname with
  | Some { offsets = Some t; _ } ->
    Hashtbl.fold (fun v o acc -> (v, o) :: acc) t []
  | Some { offsets = None; _ } | None -> [])
  |> List.sort compare
  |> List.fold_left off_digest h
