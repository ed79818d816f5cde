(** Memory persistency models (§2.2) — the compile-time flag of DeepMC:
    strict (persist in program order), epoch (barrier-ordered epochs),
    and strand (concurrent independent strands). *)

type t = Strict | Epoch | Strand

val all : t list
val to_string : t -> string
val of_string : string -> t option

val flag : t -> string
(** The compiler flag spelling: ["-strict"], ["-epoch"], ["-strand"]. *)

val pp : t Fmt.t

val relaxes : t -> t option
(** The model this one relaxes (epoch relaxes strict, strand relaxes
    epoch). *)

val equal : t -> t -> bool
