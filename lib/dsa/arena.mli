(** Node arena with union-find for the Data Structure Graph. Nodes are
    merged Steensgaard-style when the analysis discovers they may be the
    same object; merging unions attribute flags and mod/ref field sets,
    and recursively unifies points-to edges. *)

type field_key = string option
(** [Some f] when field-sensitive; [None] is the anonymous key used when
    field sensitivity is disabled (the ablation switch). *)

type node = {
  id : int;
  mutable parent : int;
  mutable rank : int;
  mutable ty : Nvmir.Ty.t option;  (** pointee type, when known *)
  mutable persistent : bool;
  mutable heap : bool;  (** created at an allocation site *)
  mutable unknown : bool;  (** synthesized for unresolved pointers *)
  mutable edges : (field_key * int) list;  (** points-to, per field *)
  mutable mod_fields : field_key list;
  mutable ref_fields : field_key list;
  mutable names : string list;  (** variables known to point here *)
}

type t

val create : unit -> t
val node : t -> int -> node

val fresh :
  t ->
  ?ty:Nvmir.Ty.t ->
  ?persistent:bool ->
  ?heap:bool ->
  ?unknown:bool ->
  unit ->
  int

val find : t -> int -> int
(** Canonical representative (with path compression). *)

val compress : t -> unit
(** Fully compress every node's parent chain. After this (and absent
    further unions), [find] and [canonical] are read-only and safe to
    call from multiple domains concurrently. *)

val canonical : t -> int -> node

val unify : t -> int -> int -> unit
(** Merge two nodes, their attributes, and (recursively) the targets of
    matching field edges. *)

val ensure_edge : t -> int -> field_key -> int
(** Follow the field edge, creating an unknown target if missing. *)

val set_persistent : t -> int -> unit
val is_persistent : t -> int -> bool
val add_mod : t -> int -> field_key -> unit
val add_ref : t -> int -> field_key -> unit
val add_name : t -> int -> string -> unit
val canonical_ids : t -> int list
val size : t -> int
val pp_field_key : field_key Fmt.t
val pp_node : t -> int Fmt.t
