(* IR interpreter over the NVM simulator.

   Executes a validated program against a [Pmem.t] heap: stores, loads,
   flushes, fences, transactions and epoch/strand annotations all go
   through [Pmem], so any attached listener — in particular the dynamic
   checker — observes exactly the events an instrumented binary would
   produce (step 5/6 of Figure 8). *)

exception Runtime_error of string * Nvmir.Loc.t
exception Out_of_fuel

let error loc fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, loc))) fmt

type frame = { func : Nvmir.Func.t; vars : (string, Value.t) Hashtbl.t }

(* Persistence-ordering boundaries: the instruction classes at which an
   interleaving scheduler may preempt. The hook fires before the
   instruction executes, so a scheduler observing [Bflush] preempts
   between the store and its write-back — the window PMRace-style delay
   injection needs. *)
type boundary =
  | Bflush
  | Bfence
  | Bpersist
  | Btx_begin
  | Btx_end
  | Bepoch_begin
  | Bepoch_end
  | Bstrand_begin
  | Bstrand_end

let boundary_name = function
  | Bflush -> "flush"
  | Bfence -> "fence"
  | Bpersist -> "persist"
  | Btx_begin -> "tx-begin"
  | Btx_end -> "tx-end"
  | Bepoch_begin -> "epoch-begin"
  | Bepoch_end -> "epoch-end"
  | Bstrand_begin -> "strand-begin"
  | Bstrand_end -> "strand-end"

type t = {
  prog : Nvmir.Prog.t;
  pmem : Pmem.t;
  mutable fuel : int;
  mutable steps : int;
  boundary_hook : (boundary -> Nvmir.Loc.t -> unit) option;
  mutable corrupt_reads : (Pmem.addr * Nvmir.Loc.t) list; (* reversed *)
}

let create ?(fuel = 5_000_000) ?boundary_hook ~pmem prog =
  { prog; pmem; fuel; steps = 0; boundary_hook; corrupt_reads = [] }

let pmem t = t.pmem
let steps t = t.steps
let corrupt_reads t = List.rev t.corrupt_reads

(* Every unguarded read funnels through here: loads, and pointer
   dereferences inside place resolution. CRC primitives do not — they
   are the guard. A corrupt read is recorded, not raised, so recovery
   code that silently accepts corrupt state runs to completion — which
   is itself the bug the recovery tier reports. *)
let read_unguarded t loc addr =
  let v = Pmem.read t.pmem ~loc addr in
  if Pmem.is_corrupt t.pmem addr then
    t.corrupt_reads <- (addr, loc) :: t.corrupt_reads;
  v

let tick t loc =
  t.steps <- t.steps + 1;
  if t.steps > t.fuel then begin
    ignore loc;
    raise Out_of_fuel
  end

let lookup frame loc v =
  match Hashtbl.find_opt frame.vars v with
  | Some value -> value
  | None -> error loc "unbound variable %s in %s" v frame.func.Nvmir.Func.fname

let eval_operand frame loc = function
  | Nvmir.Operand.Const n -> Value.Vint n
  | Nvmir.Operand.Bool_const b -> Value.Vbool b
  | Nvmir.Operand.Var v -> lookup frame loc v
  | Nvmir.Operand.Null -> Value.Vnull

(* Size in slots of a field of [struct_name]. *)
let field_size tenv ~struct_name ~field =
  match Nvmir.Ty.field_ty tenv ~struct_name ~field with
  | Some ty -> Nvmir.Ty.size_slots tenv ty
  | None -> 1

(* Element size of an array-typed field, for indexing. *)
let elem_size tenv ty =
  match ty with
  | Nvmir.Ty.Array (elem, _) -> Nvmir.Ty.size_slots tenv elem
  | _ -> 1

(* Resolve a place to a concrete address plus the slot extent of the
   denoted field/element. Returns (addr, nslots). *)
let resolve t frame loc (place : Nvmir.Place.t) : Pmem.addr * int =
  let tenv = Nvmir.Prog.tenv t.prog in
  let base_val = lookup frame loc (Nvmir.Place.base place) in
  let obj, off =
    match base_val with
    | Value.Vref { obj; off } -> (obj, off)
    | v ->
      error loc "place base %s does not hold a reference (%a)"
        (Nvmir.Place.base place) Value.pp v
  in
  let struct_name_at obj_id =
    match Pmem.obj_ty t.pmem obj_id with
    | Nvmir.Ty.Named s -> Some s
    | _ -> None
  in
  let rec walk obj off path =
    match (path : Nvmir.Place.access list) with
    | [] ->
      let size =
        if off = 0 then Pmem.obj_size t.pmem obj
        else 1 (* interior pointer: single slot by default *)
      in
      ({ Pmem.obj_id = obj; slot = off }, size)
    | Nvmir.Place.Field f :: rest -> (
      match struct_name_at obj with
      | Some s when off = 0 -> (
        match Nvmir.Ty.field_offset tenv ~struct_name:s ~field:f with
        | Some foff -> (
          let fsize = field_size tenv ~struct_name:s ~field:f in
          match rest with
          | [] -> ({ Pmem.obj_id = obj; slot = foff }, fsize)
          | Nvmir.Place.Index i :: rest' -> (
            let idx =
              Value.to_int (eval_operand frame loc (index_operand i))
            in
            let es =
              match Nvmir.Ty.field_ty tenv ~struct_name:s ~field:f with
              | Some fty -> elem_size tenv fty
              | None -> 1
            in
            let slot = foff + (idx * es) in
            match rest' with
            | [] -> ({ Pmem.obj_id = obj; slot }, es)
            | _ -> deref obj slot rest')
          | _ -> deref obj foff rest)
        | None -> error loc "struct %s has no field %s" s f)
      | Some _ | None ->
        (* interior pointer or unknown layout: treat the field hop as a
           pointer dereference through the current slot *)
        deref obj off (Nvmir.Place.Field f :: rest))
    | Nvmir.Place.Index i :: rest -> (
      let idx = Value.to_int (eval_operand frame loc (index_operand i)) in
      let es = elem_size tenv (Pmem.obj_ty t.pmem obj) in
      let slot = off + (idx * es) in
      match rest with
      | [] -> ({ Pmem.obj_id = obj; slot }, es)
      | _ -> deref obj slot rest)
  and deref obj slot path =
    match read_unguarded t loc { Pmem.obj_id = obj; slot } with
    | Value.Vref { obj = obj'; off = off' } -> walk obj' off' path
    | Value.Vnull -> error loc "null dereference in %a" Nvmir.Place.pp place
    | v -> error loc "dereferencing non-pointer %a" Value.pp v
  and index_operand i = i
  in
  walk obj off (Nvmir.Place.path place)

(* Extent of a flush/persist/log relative to the resolved place. *)
let extent_range t frame loc place (extent : Nvmir.Instr.extent) =
  let addr, nslots = resolve t frame loc place in
  match extent with
  | Nvmir.Instr.Exact -> (addr, nslots)
  | Nvmir.Instr.Object ->
    ( { Pmem.obj_id = addr.Pmem.obj_id; slot = 0 },
      Pmem.obj_size t.pmem addr.Pmem.obj_id )
  | Nvmir.Instr.Bytes n -> (addr, max 1 n)

(* Pointer arithmetic: ref +/- int adjusts the slot offset, and the
   difference of two refs into the SAME object is their slot distance
   (the only well-defined ref subtraction, as in C). Every other mix of
   refs and ints is a typed evaluation error — [Value.to_int] on a ref
   yields its object id, and silently folding that into arithmetic used
   to produce garbage results instead of a diagnostic. The static tier
   mirrors this same algebra in the [Aaddr.offset] lattice. *)
let cmp_int a b =
  match (a, b) with
  | Value.Vref { obj = o1; off = f1 }, Value.Vref { obj = o2; off = f2 }
    when o1 = o2 ->
    compare f1 f2
  | _ -> compare (Value.to_int a) (Value.to_int b)

let eval_binop loc op a b =
  let int2 name k =
    match (a, b) with
    | Value.Vref _, _ | _, Value.Vref _ ->
      error loc "%s on pointer value(s) %a, %a" name Value.pp a Value.pp b
    | _ -> k (Value.to_int a) (Value.to_int b)
  in
  match (op : Nvmir.Instr.binop) with
  | Nvmir.Instr.Add -> (
    match (a, b) with
    | Value.Vref { obj; off }, Value.Vint n
    | Value.Vint n, Value.Vref { obj; off } -> Value.vref ~off:(off + n) obj
    | _ -> int2 "addition" (fun ai bi -> Value.Vint (ai + bi)))
  | Nvmir.Instr.Sub -> (
    match (a, b) with
    | Value.Vref { obj; off }, Value.Vint n -> Value.vref ~off:(off - n) obj
    | Value.Vref { obj = o1; off = f1 }, Value.Vref { obj = o2; off = f2 } ->
      if o1 = o2 then Value.Vint (f1 - f2)
      else
        error loc "subtraction of pointers into different objects %a, %a"
          Value.pp a Value.pp b
    | _ -> int2 "subtraction" (fun ai bi -> Value.Vint (ai - bi)))
  | Nvmir.Instr.Mul -> int2 "multiplication" (fun ai bi -> Value.Vint (ai * bi))
  | Nvmir.Instr.Div ->
    int2 "division" (fun ai bi ->
        if bi = 0 then error loc "division by zero" else Value.Vint (ai / bi))
  | Nvmir.Instr.Eq -> Value.Vbool (Value.equal a b)
  | Nvmir.Instr.Ne -> Value.Vbool (not (Value.equal a b))
  (* orderings stay permissive: same-object refs compare by slot offset,
     everything else by [Value.to_int], as before *)
  | Nvmir.Instr.Lt -> Value.Vbool (cmp_int a b < 0)
  | Nvmir.Instr.Le -> Value.Vbool (cmp_int a b <= 0)
  | Nvmir.Instr.Gt -> Value.Vbool (cmp_int a b > 0)
  | Nvmir.Instr.Ge -> Value.Vbool (cmp_int a b >= 0)
  | Nvmir.Instr.And -> Value.Vbool (Value.truthy a && Value.truthy b)
  | Nvmir.Instr.Or -> Value.Vbool (Value.truthy a || Value.truthy b)

let rec exec_func t (func : Nvmir.Func.t) (args : Value.t list) : Value.t =
  let frame = { func; vars = Hashtbl.create 16 } in
  (if List.length args <> List.length func.params then
     error (Nvmir.Func.first_loc func) "%s expects %d argument(s), got %d"
       func.fname (List.length func.params) (List.length args));
  List.iter2
    (fun (p, _ty) v -> Hashtbl.replace frame.vars p v)
    func.params args;
  exec_block t frame (Nvmir.Func.entry_block func)

and exec_block t frame (block : Nvmir.Func.block) : Value.t =
  List.iter (exec_instr t frame) block.instrs;
  match block.term with
  | Nvmir.Func.Ret None -> Value.Vnull
  | Nvmir.Func.Ret (Some op) -> eval_operand frame block.term_loc op
  | Nvmir.Func.Br l -> goto t frame block.term_loc l
  | Nvmir.Func.Cond_br { cond; then_lbl; else_lbl } ->
    let v = eval_operand frame block.term_loc cond in
    goto t frame block.term_loc
      (if Value.truthy v then then_lbl else else_lbl)

and goto t frame loc label =
  tick t loc;
  match Nvmir.Func.find_block frame.func label with
  | Some b -> exec_block t frame b
  | None -> error loc "no block %s in %s" label frame.func.Nvmir.Func.fname

and boundary_of_instr (i : Nvmir.Instr.t) =
  match i.kind with
  | Nvmir.Instr.Flush _ -> Some Bflush
  | Nvmir.Instr.Fence -> Some Bfence
  | Nvmir.Instr.Persist _ -> Some Bpersist
  | Nvmir.Instr.Tx_begin -> Some Btx_begin
  | Nvmir.Instr.Tx_end -> Some Btx_end
  | Nvmir.Instr.Epoch_begin -> Some Bepoch_begin
  | Nvmir.Instr.Epoch_end -> Some Bepoch_end
  | Nvmir.Instr.Strand_begin _ -> Some Bstrand_begin
  | Nvmir.Instr.Strand_end _ -> Some Bstrand_end
  | _ -> None

and exec_instr t frame (i : Nvmir.Instr.t) =
  tick t i.loc;
  (match t.boundary_hook with
  | None -> ()
  | Some hook -> (
    match boundary_of_instr i with
    | Some b -> hook b i.loc
    | None -> ()));
  let loc = i.loc in
  (* The heap rejects a slot outside its object, a reference to no
     object and a commit outside a transaction with [Invalid_argument];
     in the interpreted program each is a runtime error here. *)
  try exec_kind t frame loc i.kind
  with Invalid_argument m -> raise (Runtime_error (m, loc))

and exec_kind t frame loc (kind : Nvmir.Instr.kind) =
  match kind with
  | Nvmir.Instr.Store { dst; src } ->
    let addr, _ = resolve t frame loc dst in
    Pmem.write t.pmem ~loc addr (eval_operand frame loc src)
  | Nvmir.Instr.Load { dst; src } ->
    let addr, _ = resolve t frame loc src in
    Hashtbl.replace frame.vars dst (read_unguarded t loc addr)
  | Nvmir.Instr.Assign { dst; src } ->
    Hashtbl.replace frame.vars dst (eval_operand frame loc src)
  | Nvmir.Instr.Binop { dst; op; lhs; rhs } ->
    Hashtbl.replace frame.vars dst
      (eval_binop loc op (eval_operand frame loc lhs) (eval_operand frame loc rhs))
  | Nvmir.Instr.Alloc { dst; ty; space } ->
    let pointee = match ty with Nvmir.Ty.Ptr inner -> inner | other -> other in
    let id =
      Pmem.alloc t.pmem ~name:dst ~tenv:(Nvmir.Prog.tenv t.prog)
        ~persistent:(space = Nvmir.Instr.Persistent)
        pointee
    in
    Hashtbl.replace frame.vars dst (Value.vref id)
  | Nvmir.Instr.Addr_of { dst; src } ->
    let addr, _ = resolve t frame loc src in
    Hashtbl.replace frame.vars dst
      (Value.vref ~off:addr.Pmem.slot addr.Pmem.obj_id)
  | Nvmir.Instr.Flush { target; extent } ->
    let addr, nslots = extent_range t frame loc target extent in
    Pmem.flush_range t.pmem ~loc ~obj_id:addr.Pmem.obj_id
      ~first_slot:addr.Pmem.slot ~nslots ()
  | Nvmir.Instr.Fence -> Pmem.fence t.pmem ~loc ()
  | Nvmir.Instr.Persist { target; extent } ->
    let addr, nslots = extent_range t frame loc target extent in
    Pmem.persist_range t.pmem ~loc ~obj_id:addr.Pmem.obj_id
      ~first_slot:addr.Pmem.slot ~nslots ()
  | Nvmir.Instr.Tx_begin -> Pmem.tx_begin t.pmem ~loc ()
  | Nvmir.Instr.Tx_end -> Pmem.tx_end t.pmem ~loc ()
  | Nvmir.Instr.Tx_add { target; extent } ->
    let addr, nslots = extent_range t frame loc target extent in
    Pmem.tx_add t.pmem ~loc ~obj_id:addr.Pmem.obj_id
      ~first_slot:addr.Pmem.slot ~nslots ()
  | Nvmir.Instr.Epoch_begin -> Pmem.epoch_begin t.pmem ~loc ()
  | Nvmir.Instr.Epoch_end -> Pmem.epoch_end t.pmem ~loc ()
  | Nvmir.Instr.Strand_begin n -> Pmem.strand_begin t.pmem ~loc n
  | Nvmir.Instr.Strand_end n -> Pmem.strand_end t.pmem ~loc n
  | Nvmir.Instr.Call { dst; callee; args } -> (
    let arg_vals = List.map (eval_operand frame loc) args in
    match Nvmir.Prog.find_func t.prog callee with
    | Some f ->
      let ret = exec_func t f arg_vals in
      Option.iter (fun d -> Hashtbl.replace frame.vars d ret) dst
    | None -> error loc "call to undefined function %s" callee)
  | Nvmir.Instr.Crc_of { dst; target; extent } ->
    let addr, nslots = extent_range t frame loc target extent in
    Hashtbl.replace frame.vars dst
      (Value.Vint
         (Pmem.crc_of_range t.pmem ~obj_id:addr.Pmem.obj_id
            ~first_slot:addr.Pmem.slot ~nslots))
  | Nvmir.Instr.Crc_check { dst; target; extent; crc } ->
    let addr, nslots = extent_range t frame loc target extent in
    (* the CRC slot itself is part of the guard: a corrupt checksum must
       read as "invalid", never as a lucky match *)
    let crc_addr, _ = resolve t frame loc crc in
    let crc_val = Pmem.read t.pmem ~loc crc_addr in
    let ok =
      (not (Pmem.is_corrupt t.pmem crc_addr))
      && Pmem.crc_check_range t.pmem ~obj_id:addr.Pmem.obj_id
           ~first_slot:addr.Pmem.slot ~nslots ~crc:crc_val
    in
    Hashtbl.replace frame.vars dst (Value.Vbool ok)
  | Nvmir.Instr.Comment _ -> ()

(* Run [entry] with pre-built values (references included), for callers
   that thread a shared allocation into several entry points. *)
let run_values ?(entry = "main") ?(args = []) t : Value.t =
  match Nvmir.Prog.find_func t.prog entry with
  | None -> invalid_arg (Fmt.str "Interp.run_values: no function %s" entry)
  | Some f -> exec_func t f args

(* Run [entry] with integer arguments. *)
let run ?(entry = "main") ?(args = []) t : Value.t =
  run_values ~entry ~args:(List.map (fun n -> Value.Vint n) args) t

(* The one place the client conventions of a multi-client program are
   read; setup runs here, once, before any client. *)
let clients ?fuel ~pmem ~entry ~args prog =
  let find = Nvmir.Prog.find_func prog in
  let setup f = exec_func (create ?fuel ~pmem prog) f [] in
  let args =
    match Option.map setup (find "fuzz_setup") with
    | None | Some Value.Vnull -> List.map (fun n -> Value.Vint n) args
    | Some shared -> [ shared ]
  in
  fun c ->
    let own = "fuzz_client_" ^ string_of_int c in
    ((if find own = None then entry else own), args)
