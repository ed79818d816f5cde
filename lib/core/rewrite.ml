(* IR surgery utilities for the automated fixer: locate instructions by
   source location, insert/remove/move instructions, and rebuild the
   program. Programs are immutable from the outside, so every operation
   returns a fresh [Nvmir.Prog.t]. *)

(* A cursor: function name, block label, and index within the block. *)
type cursor = { in_func : string; in_block : string; index : int }

(* Find the first instruction whose location matches [loc] and satisfies
   [pred] (kind filters disambiguate warnings on unannotated code, where
   many instructions share [Loc.none]). *)
let find_at_loc ?(pred = fun (_ : Nvmir.Instr.t) -> true) (prog : Nvmir.Prog.t)
    (loc : Nvmir.Loc.t) : (cursor * Nvmir.Instr.t) option =
  List.find_map
    (fun f ->
      List.find_map
        (fun (b : Nvmir.Func.block) ->
          List.find_map
            (fun (idx, (i : Nvmir.Instr.t)) ->
              if Nvmir.Loc.equal i.Nvmir.Instr.loc loc && pred i then
                Some
                  ( {
                      in_func = Nvmir.Func.name f;
                      in_block = b.Nvmir.Func.label;
                      index = idx;
                    },
                    i )
              else None)
            (List.mapi (fun idx i -> (idx, i)) b.Nvmir.Func.instrs))
        f.Nvmir.Func.blocks)
    (Nvmir.Prog.funcs prog)

(* Rebuild [prog] with [f] applied to every function. *)
let map_funcs (prog : Nvmir.Prog.t) (f : Nvmir.Func.t -> Nvmir.Func.t) :
    Nvmir.Prog.t =
  let out = Nvmir.Prog.create () in
  List.iter (Nvmir.Prog.add_struct out) (Nvmir.Prog.structs prog);
  List.iter (fun fn -> Nvmir.Prog.add_func out (f fn)) (Nvmir.Prog.funcs prog);
  out

(* Rewrite one block's instruction list in place (identity elsewhere). *)
let map_block prog ~in_func ~in_block
    (rewrite : Nvmir.Instr.t list -> Nvmir.Instr.t list) : Nvmir.Prog.t =
  map_funcs prog (fun f ->
      if not (String.equal (Nvmir.Func.name f) in_func) then f
      else
        {
          f with
          Nvmir.Func.blocks =
            List.map
              (fun (b : Nvmir.Func.block) ->
                if String.equal b.Nvmir.Func.label in_block then
                  { b with Nvmir.Func.instrs = rewrite b.Nvmir.Func.instrs }
                else b)
              f.Nvmir.Func.blocks;
        })

(* Insert [instrs] immediately after the cursor position. *)
let insert_after prog (c : cursor) (instrs : Nvmir.Instr.t list) =
  map_block prog ~in_func:c.in_func ~in_block:c.in_block (fun existing ->
      List.concat
        (List.mapi
           (fun idx i -> if idx = c.index then i :: instrs else [ i ])
           existing))

(* Insert [instrs] immediately before the cursor position. *)
let insert_before prog (c : cursor) (instrs : Nvmir.Instr.t list) =
  map_block prog ~in_func:c.in_func ~in_block:c.in_block (fun existing ->
      List.concat
        (List.mapi
           (fun idx i -> if idx = c.index then instrs @ [ i ] else [ i ])
           existing))

(* Append [instrs] at the end of a block (before its terminator). *)
let append_to_block prog ~in_func ~in_block instrs =
  map_block prog ~in_func ~in_block (fun existing -> existing @ instrs)

(* Remove the instruction at the cursor. *)
let remove_at prog (c : cursor) =
  map_block prog ~in_func:c.in_func ~in_block:c.in_block (fun existing ->
      List.filteri (fun idx _ -> idx <> c.index) existing)

(* Replace the instruction at the cursor. *)
let replace_at prog (c : cursor) (instr : Nvmir.Instr.t) =
  map_block prog ~in_func:c.in_func ~in_block:c.in_block (fun existing ->
      List.mapi (fun idx i -> if idx = c.index then instr else i) existing)

(* The nearest store preceding the cursor in the same block that writes
   through the same base object as [base]; used to narrow whole-object
   flushes to the actually-modified field. *)
let nearest_store_before (prog : Nvmir.Prog.t) (c : cursor) ~base :
    Nvmir.Place.t option =
  match Nvmir.Prog.find_func prog c.in_func with
  | None -> None
  | Some f -> (
    match Nvmir.Func.find_block f c.in_block with
    | None -> None
    | Some b ->
      let before = List.filteri (fun idx _ -> idx < c.index) b.Nvmir.Func.instrs in
      List.fold_left
        (fun acc (i : Nvmir.Instr.t) ->
          match i.Nvmir.Instr.kind with
          | Nvmir.Instr.Store { dst; _ }
            when String.equal (Nvmir.Place.base dst) base -> Some dst
          | _ -> acc)
        None before)

(* Blocks that can branch to [label] within [in_func]. *)
let predecessors (prog : Nvmir.Prog.t) ~in_func ~label =
  match Nvmir.Prog.find_func prog in_func with
  | None -> []
  | Some f ->
    let cfg = Graphs.Cfg.of_func f in
    Graphs.Cfg.predecessors cfg label

(* Does a block contain a store whose base is [base]? *)
let block_stores_to (prog : Nvmir.Prog.t) ~in_func ~label ~base =
  match Nvmir.Prog.find_func prog in_func with
  | None -> false
  | Some f -> (
    match Nvmir.Func.find_block f label with
    | None -> false
    | Some b ->
      List.exists
        (fun (i : Nvmir.Instr.t) ->
          match i.Nvmir.Instr.kind with
          | Nvmir.Instr.Store { dst; _ } ->
            String.equal (Nvmir.Place.base dst) base
          | _ -> false)
        b.Nvmir.Func.instrs)
