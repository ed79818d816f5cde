(* Node arena with union-find for the Data Structure Graph.

   Each node abstracts one (set of) runtime object(s). Nodes are merged
   Steensgaard-style when the analysis discovers they may be the same
   object (assignments, call-boundary parameter binding). Merging unions
   attribute flags and mod/ref field sets, and recursively unifies
   points-to edges.

   Field edges are keyed by field name ([Some f]) or by the anonymous
   key [None] when field sensitivity is disabled — the ablation switch
   the evaluation uses to show why field sensitivity matters. *)

type field_key = string option

type node = {
  id : int;
  mutable parent : int; (* union-find parent; self when canonical *)
  mutable rank : int;
  mutable ty : Nvmir.Ty.t option; (* pointee type, when known *)
  mutable persistent : bool; (* allocated from / proven to be in NVM *)
  mutable heap : bool; (* created at an allocation site *)
  mutable unknown : bool; (* synthesized for unresolved pointers *)
  mutable edges : (field_key * int) list; (* points-to, per field *)
  mutable mod_fields : field_key list; (* fields written through this node *)
  mutable ref_fields : field_key list; (* fields read through this node *)
  mutable names : string list; (* variables known to point here, for dumps *)
}

(* Nodes live in a growable array indexed by id: ids are dense (0 ..
   [len - 1], in creation order), so [node] is one bounds check and a
   load. Slots past [len] hold [placeholder]. *)
type t = { mutable nodes : node array; mutable len : int }

let placeholder =
  {
    id = -1;
    parent = -1;
    rank = 0;
    ty = None;
    persistent = false;
    heap = false;
    unknown = false;
    edges = [];
    mod_fields = [];
    ref_fields = [];
    names = [];
  }

let create () = { nodes = Array.make 64 placeholder; len = 0 }

let node t id =
  if id < 0 || id >= t.len then raise Not_found else Array.unsafe_get t.nodes id

let fresh t ?ty ?(persistent = false) ?(heap = false) ?(unknown = false) () =
  let id = t.len in
  if id = Array.length t.nodes then begin
    let grown = Array.make (2 * id) placeholder in
    Array.blit t.nodes 0 grown 0 id;
    t.nodes <- grown
  end;
  t.nodes.(id) <-
    {
      id;
      parent = id;
      rank = 0;
      ty;
      persistent;
      heap;
      unknown;
      edges = [];
      mod_fields = [];
      ref_fields = [];
      names = [];
    };
  t.len <- id + 1;
  id

(* The write is guarded so that after [compress] a fully-compressed
   arena answers [find] without mutating — concurrent readers (the
   parallel per-root checking phase) then never race on [parent]. *)
let rec find t id =
  let n = node t id in
  if n.parent = id then id
  else begin
    let root = find t n.parent in
    if n.parent <> root then n.parent <- root;
    root
  end

(* Point every node directly at its canonical representative. Once all
   unions are done, this freezes the union-find: subsequent [find]s are
   pure lookups, safe to issue from multiple domains. *)
let compress t =
  for i = 0 to t.len - 1 do
    ignore (find t i)
  done

let canonical t id = node t (find t id)

let union_list a b =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) a b

(* Unify two nodes, merging attributes and recursively unifying the
   points-to targets of matching field edges. *)
let rec unify t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let na = node t ra and nb = node t rb in
    let winner, loser = if na.rank >= nb.rank then (na, nb) else (nb, na) in
    loser.parent <- winner.id;
    if winner.rank = loser.rank then winner.rank <- winner.rank + 1;
    winner.ty <- (match winner.ty with None -> loser.ty | Some _ -> winner.ty);
    winner.persistent <- winner.persistent || loser.persistent;
    winner.heap <- winner.heap || loser.heap;
    winner.unknown <- winner.unknown && loser.unknown;
    winner.mod_fields <- union_list winner.mod_fields loser.mod_fields;
    winner.ref_fields <- union_list winner.ref_fields loser.ref_fields;
    winner.names <- union_list winner.names loser.names;
    (* merge edges: same key -> unify targets *)
    let pending = loser.edges in
    loser.edges <- [];
    List.iter
      (fun (key, target) ->
        match List.assoc_opt key winner.edges with
        | Some existing -> unify t existing target
        | None -> winner.edges <- (key, target) :: winner.edges)
      pending
  end

(* Follow (or create) the points-to edge for a field. *)
let ensure_edge t id key =
  let n = canonical t id in
  match List.assoc_opt key n.edges with
  | Some target -> find t target
  | None ->
    let target = fresh t ~unknown:true () in
    n.edges <- (key, target) :: n.edges;
    target

let set_persistent t id =
  (canonical t id).persistent <- true

let is_persistent t id = (canonical t id).persistent

let add_mod t id key =
  let n = canonical t id in
  if not (List.mem key n.mod_fields) then n.mod_fields <- key :: n.mod_fields

let add_ref t id key =
  let n = canonical t id in
  if not (List.mem key n.ref_fields) then n.ref_fields <- key :: n.ref_fields

let add_name t id name =
  let n = canonical t id in
  if not (List.mem name n.names) then n.names <- name :: n.names

let canonical_ids t =
  let rec collect acc i =
    if i >= t.len then List.rev acc
    else if find t i = i then collect (i :: acc) (i + 1)
    else collect acc (i + 1)
  in
  collect [] 0

let size t = t.len

let pp_field_key ppf = function
  | None -> Fmt.string ppf "*"
  | Some f -> Fmt.string ppf f

let pp_node t ppf id =
  let n = canonical t id in
  let pp_edge ppf (k, tgt) = Fmt.pf ppf "%a -> n%d" pp_field_key k (find t tgt) in
  Fmt.pf ppf "@[<v 2>n%d%s%s%s [%a]@ ty: %a@ edges: %a@ mod: {%a} ref: {%a}@]"
    n.id
    (if n.persistent then " pmem" else "")
    (if n.heap then " heap" else "")
    (if n.unknown then " unknown" else "")
    Fmt.(list ~sep:(any ", ") string)
    n.names
    Fmt.(option ~none:(any "?") Nvmir.Ty.pp)
    n.ty
    Fmt.(list ~sep:(any ", ") pp_edge)
    n.edges
    Fmt.(list ~sep:(any ", ") pp_field_key)
    n.mod_fields
    Fmt.(list ~sep:(any ", ") pp_field_key)
    n.ref_fields
