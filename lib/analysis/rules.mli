(** The checking rules of Table 4 (persistency-model violations) and
    Table 5 (performance bugs). Rule metadata lives in {!catalog} so the
    toolkit can print the tables from the registry itself; the rules run
    as one forward fold over a path's scoped events ({!Fold}), whose
    persistent state lets a checker resume a path from the prefix it
    shares with the previous one. *)

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
    value, share scoped prefixes structurally. [finish] runs the rule
    fold over the path fed so far and returns its warnings, rule by rule
    (the four flush-coverage rules as one) and each rule's in path
    order. *)
module Incremental : sig
  type state

  val start : state
  val step : state -> Event.t -> state
  val feed : state -> Event.t list -> state
  val finish : ctx -> state -> Warning.t list
end

(** {1 The rule fold}

    The scoper and every rule's state in one persistent value: the state
    after a path's first [k] events is all the rules need from them, so
    a checker that keeps states along one path checks the next path by
    stepping on from their common prefix. *)
module Fold : sig
  type t

  val start : t
  val step : ctx -> t -> Event.t -> t

  type found
  (** A warning the path decided, message not yet formatted. *)

  val close : t -> found list
  (** The path's warnings, in {!Incremental.finish}'s order. Counts one
      evaluation of each rule. *)

  val key : found -> Warning.rule_id * string * int
  (** {!Warning.dedup_key} of the warning, without formatting it. *)

  val warnings : ctx -> Trace.t -> found list -> Warning.t list
  (** Formats [found]s of the given path, attaching their witnesses
      from it when capture is on. *)
end

val scope_trace : Trace.t -> scoped list
(** A whole trace's scoped events: [feed start trace], unwrapped. *)
