(* Functions: a list of labeled basic blocks; the first block is the
   entry. Each block ends in exactly one terminator. *)

type terminator =
  | Ret of Operand.t option
  | Br of string
  | Cond_br of { cond : Operand.t; then_lbl : string; else_lbl : string }

type block = {
  label : string;
  instrs : Instr.t list;
  term : terminator;
  term_loc : Loc.t;
}

type t = {
  fname : string;
  params : (string * Ty.t) list;
  ret_ty : Ty.t option;
  blocks : block list;
  floc : Loc.t;
}

let name t = t.fname
let entry_block t =
  match t.blocks with
  | [] -> invalid_arg ("Func.entry_block: empty function " ^ t.fname)
  | b :: _ -> b

let first_loc t =
  match
    List.find_opt
      (fun (i : Instr.t) -> not (Loc.is_none i.Instr.loc))
      (entry_block t).instrs
  with
  | Some i -> i.Instr.loc
  | None -> t.floc

let find_block t label =
  List.find_opt (fun b -> String.equal b.label label) t.blocks

let successors (b : block) =
  match b.term with
  | Ret _ -> []
  | Br l -> [ l ]
  | Cond_br { then_lbl; else_lbl; _ } -> [ then_lbl; else_lbl ]

let pp_terminator ppf = function
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some op) -> Fmt.pf ppf "ret %a" Operand.pp op
  | Br l -> Fmt.pf ppf "br %s" l
  | Cond_br { cond; then_lbl; else_lbl } ->
    Fmt.pf ppf "br %a, %s, %s" Operand.pp cond then_lbl else_lbl

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:@ %a%a%a@]" b.label
    Fmt.(list ~sep:(any "@ ") Instr.pp)
    b.instrs
    Fmt.(if List.length b.instrs > 0 then any "@ " else nop)
    () pp_terminator b.term

let pp ppf t =
  let pp_param ppf (p, ty) = Fmt.pf ppf "%s: %a" p Ty.pp ty in
  let pp_ret ppf = function
    | None -> ()
    | Some ty -> Fmt.pf ppf " -> %a" Ty.pp ty
  in
  Fmt.pf ppf "@[<v>func %s(%a)%a {@ %a@ }@]" t.fname
    Fmt.(list ~sep:(any ", ") pp_param)
    t.params pp_ret t.ret_ty
    Fmt.(list ~sep:(any "@ ") pp_block)
    t.blocks

(* Functions called (directly) by this function, sorted, each once. *)
let callees t =
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc (i : Instr.t) ->
          match i.kind with Instr.Call { callee; _ } -> callee :: acc | _ -> acc)
        acc b.instrs)
    [] t.blocks
  |> List.sort_uniq String.compare

let iter_instrs f t =
  List.iter (fun b -> List.iter (f b.label) b.instrs) t.blocks

let instr_count t =
  List.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 t.blocks

(* The printed body is the canonical serialization (the parser
   round-trips through it), so hashing it keys every cached artifact
   derived from this function: same hash => same analysis inputs. *)
let content_hash t = Chash.of_string (Fmt.str "%a" pp t)
