(** Static-analysis bounds. [loop_bound] (10) and [recursion_bound] (5)
    follow §4.3; [max_paths] and [expansion_fanout] cap the
    interprocedural cross-product of merged traces. *)

type t = {
  loop_bound : int;  (** times a back edge may be taken per path *)
  recursion_bound : int;  (** recursion unrolling depth *)
  max_paths : int;  (** paths enumerated per function *)
  expansion_fanout : int;  (** callee traces spliced per call site *)
}

val default : t
val pp : t Fmt.t
