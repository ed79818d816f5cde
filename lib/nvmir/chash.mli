(** Stable content hashing (FNV-1a 64) for IR artifacts.

    The pretty-printer is the canonical serialization, so hashing the
    printed text gives a content key that is stable across process
    runs and sensitive to everything the checker can observe —
    instruction structure, operands, and source locations. *)

type t = int64

val empty : t
(** The FNV-1a offset basis; fold strings/ints into it. *)

val add_string : t -> string -> t
val add_char : t -> char -> t
val add_int : t -> int -> t
val of_string : string -> t

val combine : t -> t -> t
(** Order-sensitive mix of a second hash into the first. *)

val to_hex : t -> string
(** 16-digit lowercase hex, zero-padded; stable across runs. *)

val equal : t -> t -> bool
val pp : t Fmt.t
