(** Dominator computation (Cooper–Harvey–Kennedy over reverse-postorder
    indices). The loop detector uses it to identify back edges. *)

type t

val compute : Cfg.t -> t

val idom : t -> string -> string option
(** Immediate dominator; [None] for the entry block. *)

val dominates : t -> string -> string -> bool
(** [dominates t a b]: does [a] dominate [b]? Reflexive. *)
