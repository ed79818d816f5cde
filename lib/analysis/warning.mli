(** Checker warnings: persistency-model violations and performance bugs,
    each carrying the rule that fired, the source location, and an
    explanation. The rule identifiers are the nine bug classes of
    Table 1 plus the strand-dependence rule of Table 4, plus the
    recovery-path rules reported by the media-corruption recovery
    executor ([Recover]) — those three are dynamic-only and invisible
    to the static tier. *)

type category = Model_violation | Performance

type rule_id =
  | Multiple_writes_at_once
  | Unflushed_write
  | Missing_persist_barrier
  | Missing_barrier_nested_tx
  | Semantic_mismatch
  | Strand_dependence
  | Multiple_flushes
  | Flush_unmodified
  | Persist_same_object_in_tx
  | Durable_tx_no_writes
  | Unguarded_recovery_read
  | Silent_corruption_accept
  | Non_idempotent_recovery
  | Recovery_crash

val all_rules : rule_id list

val rule_name : rule_id -> string
(** Stable kebab-case identifier, e.g. ["unflushed-write"]. *)

val rule_description : rule_id -> string
(** The Table 1 row description. *)

val category_of_rule : rule_id -> category
val pp_category : category Fmt.t

type origin = Static | Dynamic

type t = {
  rule : rule_id;
  model : Model.t;  (** the model the program was checked against *)
  loc : Nvmir.Loc.t;
  fname : string;
  message : string;
  origin : origin;
  witness : Witness.t option;
      (** structured evidence, present when witness capture was enabled
          ({!Witness.set_enabled}) during the run that fired the rule *)
}

val make :
  ?origin:origin ->
  ?witness:Witness.t ->
  rule:rule_id ->
  model:Model.t ->
  loc:Nvmir.Loc.t ->
  fname:string ->
  string ->
  t

val with_witness : t -> Witness.t -> t

val bundle_fingerprint : t -> string
(** The warning's cross-tier evidence-bundle key:
    {!Witness.bundle_fingerprint} over (rule, file, line). *)

val category : t -> category
val pp : t Fmt.t

val dedup_key : t -> rule_id * string * int

val dedup : t list -> t list
(** Deduplicate by (rule, file, line): different traces through the same
    code report one warning. *)

val sort : t list -> t list
(** By location, then rule name. *)
