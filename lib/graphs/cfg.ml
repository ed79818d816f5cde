(* Control-flow graphs over IR functions (step 1 of the DeepMC
   pipeline, Figure 8). Nodes are basic-block labels; edges follow block
   terminators. Unreachable blocks are kept in the function but excluded
   from traversals. *)

type t = {
  func : Nvmir.Func.t;
  entry : string;
  succs : (string, string list) Hashtbl.t;
  preds : (string, string list) Hashtbl.t;
}

let of_func (func : Nvmir.Func.t) =
  let entry = (Nvmir.Func.entry_block func).label in
  let n = List.length func.blocks in
  let succs = Hashtbl.create n and preds = Hashtbl.create n in
  List.iter
    (fun (b : Nvmir.Func.block) ->
      Hashtbl.replace succs b.label (Nvmir.Func.successors b);
      if not (Hashtbl.mem preds b.label) then Hashtbl.replace preds b.label [])
    func.blocks;
  List.iter
    (fun (b : Nvmir.Func.block) ->
      List.iter
        (fun s ->
          let old = Option.value ~default:[] (Hashtbl.find_opt preds s) in
          Hashtbl.replace preds s (old @ [ b.label ]))
        (Nvmir.Func.successors b))
    func.blocks;
  { func; entry; succs; preds }

let func t = t.func
let entry t = t.entry
let successors t label = Option.value ~default:[] (Hashtbl.find_opt t.succs label)
let predecessors t label = Option.value ~default:[] (Hashtbl.find_opt t.preds label)
let block t label = Nvmir.Func.find_block t.func label

(* Depth-first preorder from the entry; visits each reachable block once. *)
let dfs_preorder t =
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec go label =
    if not (Hashtbl.mem visited label) then (
      Hashtbl.replace visited label ();
      out := label :: !out;
      List.iter go (successors t label))
  in
  go t.entry;
  List.rev !out

(* Reverse postorder: the canonical iteration order for forward dataflow
   and for dominator computation. *)
let reverse_postorder t =
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec go label =
    if not (Hashtbl.mem visited label) then (
      Hashtbl.replace visited label ();
      List.iter go (successors t label);
      post := label :: !post)
  in
  go t.entry;
  !post

let block_count t = List.length t.func.blocks

let pp ppf t =
  let pp_edge ppf label =
    Fmt.pf ppf "%s -> {%a}" label
      Fmt.(list ~sep:(any ", ") string)
      (successors t label)
  in
  Fmt.pf ppf "@[<v>cfg %s (entry %s)@ %a@]" t.func.fname t.entry
    Fmt.(list ~sep:(any "@ ") pp_edge)
    (dfs_preorder t)
