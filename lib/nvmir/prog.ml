(* Whole programs: struct definitions plus functions.

   [validate] performs the well-formedness checks a front end would
   normally guarantee: unique function and label names, resolvable branch
   targets, resolvable struct references, and balanced region markers on
   every straight-line block sequence. Analyses assume a validated
   program. *)

(* Declaration order, for stable output. Adding conses onto the newest
   end, so building a program is linear; reading reverses the list once
   and keeps the result until the next addition. *)
type 'a ordered = {
  mutable newest_first : 'a list;
  mutable in_order : 'a list option;
}

let ordered () = { newest_first = []; in_order = Some [] }

let append o x =
  o.newest_first <- x :: o.newest_first;
  o.in_order <- None

let in_order o =
  match o.in_order with
  | Some l -> l
  | None ->
    let l = List.rev o.newest_first in
    o.in_order <- Some l;
    l

type t = {
  tenv : Ty.env;
  funcs : (string, Func.t) Hashtbl.t;
  order : Func.t ordered;
  struct_order : Ty.struct_def ordered;
}

let create () =
  {
    tenv = Ty.env_create ();
    funcs = Hashtbl.create 16;
    order = ordered ();
    struct_order = ordered ();
  }

let tenv t = t.tenv

let add_struct t sd =
  Ty.env_add t.tenv sd;
  append t.struct_order sd

let structs t = in_order t.struct_order

let add_func t (f : Func.t) =
  let name = Func.name f in
  if Hashtbl.mem t.funcs name then
    invalid_arg ("Prog.add_func: duplicate function " ^ name);
  Hashtbl.replace t.funcs name f;
  append t.order f

let find_func t name = Hashtbl.find_opt t.funcs name
let funcs t = in_order t.order
let func_names t = List.map Func.name (funcs t)

type error = { in_func : string option; message : string }

let pp_error ppf e =
  match e.in_func with
  | None -> Fmt.pf ppf "program: %s" e.message
  | Some f -> Fmt.pf ppf "in %s: %s" f e.message

let rec struct_refs = function
  | Ty.Int | Ty.Bool -> []
  | Ty.Named n -> [ n ]
  | Ty.Ptr ty | Ty.Array (ty, _) -> struct_refs ty

let validate_func t (f : Func.t) : error list =
  let err fmt = Fmt.kstr (fun message -> { in_func = Some (Func.name f); message }) fmt in
  let errors = ref [] in
  let add e = errors := e :: !errors in
  if f.blocks = [] then add (err "function has no blocks");
  (* unique labels *)
  let labels = List.map (fun (b : Func.block) -> b.label) f.blocks in
  let sorted = List.sort_uniq String.compare labels in
  if List.length sorted <> List.length labels then add (err "duplicate block labels");
  (* resolvable branch targets *)
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun l ->
          if Func.find_block f l = None then
            add (err "block %s branches to unknown label %s" b.label l))
        (Func.successors b))
    f.blocks;
  (* resolvable struct references in params and allocs *)
  let check_ty ty =
    List.iter
      (fun n ->
        if Ty.env_find t.tenv n = None then add (err "unknown struct %s" n))
      (struct_refs ty)
  in
  List.iter (fun (_, ty) -> check_ty ty) f.params;
  Func.iter_instrs
    (fun _lbl (i : Instr.t) ->
      match i.kind with
      | Instr.Alloc { ty; _ } -> check_ty ty
      | _ -> ())
    f;
  List.rev !errors

(* Region markers (tx/epoch/strand) must nest properly along every
   acyclic path. We approximate by checking each block's net effect and
   confirming an overall-balanced entry-to-exit depth on a DFS. *)
let validate_regions (f : Func.t) : error list =
  let err fmt = Fmt.kstr (fun message -> { in_func = Some (Func.name f); message }) fmt in
  let block_delta (b : Func.block) =
    List.fold_left
      (fun (tx, ep) (i : Instr.t) ->
        match i.kind with
        | Instr.Tx_begin -> (tx + 1, ep)
        | Instr.Tx_end -> (tx - 1, ep)
        | Instr.Epoch_begin -> (tx, ep + 1)
        | Instr.Epoch_end -> (tx, ep - 1)
        | _ -> (tx, ep))
      (0, 0) b.instrs
  in
  let errors = ref [] in
  let visited = Hashtbl.create 16 in
  let rec dfs label tx ep =
    match Hashtbl.find_opt visited label with
    | Some (tx', ep') ->
      if tx <> tx' || ep <> ep' then
        errors :=
          err "block %s reached with inconsistent region depth" label :: !errors
    | None -> (
      Hashtbl.replace visited label (tx, ep);
      match Func.find_block f label with
      | None -> ()
      | Some b ->
        let dtx, dep = block_delta b in
        let tx = tx + dtx and ep = ep + dep in
        if tx < 0 then
          errors := err "block %s closes a transaction never opened" label :: !errors;
        if ep < 0 then
          errors := err "block %s closes an epoch never opened" label :: !errors;
        (match b.term with
        | Func.Ret _ ->
          if tx <> 0 then
            errors := err "return in %s with %d open transaction(s)" label tx :: !errors;
          if ep <> 0 then
            errors := err "return in %s with %d open epoch(s)" label ep :: !errors
        | Func.Br _ | Func.Cond_br _ -> ());
        List.iter (fun s -> dfs s tx ep) (Func.successors b))
  in
  (match f.blocks with [] -> () | b :: _ -> dfs b.label 0 0);
  List.rev !errors

let validate t : error list =
  List.concat_map (fun f -> validate_func t f @ validate_regions f) (funcs t)

let pp ppf t =
  let pp_structs ppf = function
    | [] -> ()
    | sds -> Fmt.pf ppf "%a@ @ " Fmt.(list ~sep:(any "@ @ ") Ty.pp_struct) sds
  in
  Fmt.pf ppf "@[<v>%a%a@]" pp_structs (structs t)
    Fmt.(list ~sep:(any "@ @ ") Func.pp)
    (funcs t)

let total_instrs t =
  List.fold_left (fun acc f -> acc + Func.instr_count f) 0 (funcs t)

let function_hashes t =
  List.map (fun f -> (Func.name f, Func.content_hash f)) (funcs t)

(* Struct layouts feed field resolution everywhere, so the whole-program
   digest covers them alongside every function body, in declaration
   order (order is analysis-visible: it fixes root enumeration). *)
let digest t =
  let h =
    List.fold_left
      (fun h sd -> Chash.add_string h (Fmt.str "%a" Ty.pp_struct sd))
      Chash.empty (structs t)
  in
  List.fold_left
    (fun h (name, fh) -> Chash.combine (Chash.add_string h name) fh)
    h (function_hashes t)
