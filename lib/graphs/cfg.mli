(** Control-flow graphs over IR functions (step 1 of the DeepMC
    pipeline). Nodes are basic-block labels; edges follow block
    terminators. *)

type t

val of_func : Nvmir.Func.t -> t
val func : t -> Nvmir.Func.t
val entry : t -> string
val successors : t -> string -> string list
val predecessors : t -> string -> string list
val block : t -> string -> Nvmir.Func.block option

val dfs_preorder : t -> string list
(** Depth-first preorder from the entry; reachable blocks only. *)

val reverse_postorder : t -> string list
(** The canonical iteration order for forward dataflow and dominator
    computation. *)

val block_count : t -> int
val pp : t Fmt.t
