(** The static checker (steps 2–4 of Figure 8): build the DSG, collect
    interprocedural traces, apply the rule set for the selected model,
    and report deduplicated warnings.

    Paths are enumerated lazily and checked incrementally as each one
    completes; roots fan out on the shared domain pool. *)

type result = {
  model : Model.t;
  warnings : Warning.t list;
  trace_count : int;
  event_count : int;
  peak_paths : int;
      (** max simultaneously-live paths: the live-frame high-water mark
          across roots *)
  dsg : Dsa.Dsg.t;
}

val check :
  ?config:Config.t ->
  ?roots:string list ->
  model:Model.t ->
  Nvmir.Prog.t ->
  result

val check_paths : Rules.ctx -> Trace.t Seq.t -> Warning.t list
(** One root's paths through the rule fold, deduplicated by
    {!Warning.dedup_key} with the first occurrence kept, path by path
    in {!Rules.Incremental.finish}'s order. Each path resumes from a
    fold state kept within the prefix it shares with the previous
    one. *)

(** {1 Per-root streaming results}

    The unit of incremental reuse: a root's warnings and stats depend
    only on its own call-graph closure, so a resident analyzer replays
    cached [per_root] values for untouched roots, re-runs the stale
    ones via [check_roots ~roots:stale], and [merge_roots] the lot. *)

type per_root = {
  pr_root : string;
  pr_warnings : Warning.t list;
      (** per-root deduplicated, pre-merge order *)
  pr_paths : int;
  pr_events : int;
  pr_peak : int;
}

val check_roots :
  ?config:Config.t ->
  ?dsg:Dsa.Dsg.t ->
  ?roots:string list ->
  model:Model.t ->
  Nvmir.Prog.t ->
  per_root list * Dsa.Dsg.t
(** Check of [roots] (default: {!Trace.default_roots}),
    fanned out on the shared pool. [dsg] skips the DSG build when the
    caller already holds one for exactly this program. *)

val merge_roots : model:Model.t -> dsg:Dsa.Dsg.t -> per_root list -> result
(** Cross-root dedup + sort. Byte-identical to a cold {!check} when the
    list covers the same roots in the same order (dedup keeps the first
    occurrence, so order is semantically visible). *)

(** {1 Mixed-model checking}

    Lifts the §4.5 limitation: each analysis root carries its own
    intended persistency model, so one run can check a program whose
    parts implement different models. *)

type mixed_result = {
  per_root : (string * Model.t * Warning.t list) list;
  mixed_warnings : Warning.t list;  (** union, deduplicated *)
  mixed_dsg : Dsa.Dsg.t;
}

val check_mixed :
  ?config:Config.t ->
  model_of:(string -> Model.t) ->
  roots:string list ->
  Nvmir.Prog.t ->
  mixed_result

val violations : result -> Warning.t list
val performance_bugs : result -> Warning.t list
val pp_result : result Fmt.t
