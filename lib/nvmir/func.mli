(** Functions: labeled basic blocks, the first being the entry; each
    block ends in exactly one terminator. *)

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

val name : t -> string

val entry_block : t -> block
(** @raise Invalid_argument on an empty function. *)

val first_loc : t -> Loc.t
(** The location a report about the whole function names: the entry
    block's first located instruction, [floc] when none is located. *)

val find_block : t -> string -> block option
val successors : block -> string list
val pp_terminator : terminator Fmt.t
val pp_block : block Fmt.t
val pp : t Fmt.t

val callees : t -> string list
(** Functions called directly, deduplicated and sorted. *)

val iter_instrs : (string -> Instr.t -> unit) -> t -> unit
(** Iterate instructions with their block label. *)

val instr_count : t -> int
(** Instructions plus one terminator per block. *)

val content_hash : t -> Chash.t
(** FNV-1a 64 over the printed body (including source locations):
    equal hashes mean the checker sees identical inputs for this
    function, so every derived cache entry may be reused. *)
