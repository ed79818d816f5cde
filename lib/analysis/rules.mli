(** The checking rules of Table 4 (persistency-model violations) and
    Table 5 (performance bugs). Rule metadata lives in {!catalog} so the
    toolkit can print the tables from the registry itself; the checking
    functions are pure over scoped traces. *)

type ctx = { model : Model.t; dsg : Dsa.Dsg.t; tenv : Nvmir.Ty.env }

(** An event annotated with its transaction nesting, epoch ordinal,
    fence-delimited persist-unit ordinal and strand id. *)
type scoped = {
  ev : Event.t;
  idx : int;
  tx_depth : int;
  tx_id : int;  (** innermost enclosing transaction, -1 when none *)
  tx_stack : int list;
  epoch : int;  (** marked-epoch ordinal, -1 outside epochs *)
  unit_ : int;  (** fence-delimited persist-unit ordinal *)
  strand : int;  (** enclosing strand id, -1 outside strands *)
}

(** {1 Individual rules} — exposed for targeted testing *)

val check_unflushed_write : ctx -> scoped list -> Warning.t list
val check_multiple_writes_at_once : ctx -> scoped list -> Warning.t list
val check_missing_persist_barrier : ctx -> scoped list -> Warning.t list
val check_missing_barrier_nested_tx : ctx -> scoped list -> Warning.t list
val check_semantic_mismatch : ctx -> scoped list -> Warning.t list
val check_strand_dependence : ctx -> scoped list -> Warning.t list

val check_flush_coverage : ctx -> scoped list -> Warning.t list
(** One stateful scan covering the four Table 5 performance rules. *)

(** {1 Registry} *)

type rule_meta = {
  id : Warning.rule_id;
  models : Model.t list;  (** models the rule applies to *)
  statement : string;  (** the formal rule as stated in Table 4/5 *)
}

val catalog : rule_meta list
val meta_of : Warning.rule_id -> rule_meta
val applicable_rules : Model.t -> rule_meta list

(** {1 Incremental checking} — the scoper's per-path state.

    A persistent scoping state: fork an in-flight path by reusing the
    value, share scoped prefixes structurally. [finish] runs every
    applicable rule over the path fed so far. *)
module Incremental : sig
  type state

  val start : state
  val step : state -> Event.t -> state
  val feed : state -> Event.t list -> state
  val finish : ctx -> state -> Warning.t list
end

val scope_trace : Trace.t -> scoped list
(** A whole trace's scoped events: [feed start trace], unwrapped. *)
