(** The DeepMC toolkit driver: the end-to-end pipeline of Figure 8.
    Given a program and the persistency-model flag, runs the static
    checker and, optionally, one execution with the dynamic checker,
    recorded for crash-image exploration and recovery verification
    (one sweep of that recording feeds both), merging the warning
    streams into one report. This is the one place that sequences the
    tiers on a program. *)

type t

val make :
  ?config:Analysis.Config.t -> ?run_dynamic:bool -> Analysis.Model.t -> t

type dynamic_outcome =
  | Dynamic_ok of Runtime.Dynamic.summary
  | Dynamic_skipped of string
      (** disabled, no entry, or the run failed (runtime error, fuel) *)

type report = {
  model : Analysis.Model.t;
  static : Analysis.Checker.result;
  dynamic : dynamic_outcome;
  dynamic_warnings : Analysis.Warning.t list;
      (** the dynamic tier's warnings, including those stored before a
          failed run stopped *)
  warnings : Analysis.Warning.t list;  (** merged, deduplicated *)
  crash_space : Runtime.Crash_space.report option;
      (** reachable crash-image exploration, when requested *)
  crash_skipped : string option;
      (** the forward run's failure, when it skipped a requested tier *)
  recovery : Recover.report option;
      (** recovery-path verification, when requested *)
  recovery_skipped : string option;  (** likewise *)
  elapsed_static : float;
  elapsed_dynamic : float;
}

val analyze :
  t ->
  ?roots:string list ->
  ?entry:string ->
  ?args:int list ->
  ?clients:int ->
  ?explore_crash_images:bool ->
  ?crash_bound:int ->
  ?seed:int ->
  ?verify_recovery:bool ->
  ?recovery_entry:string ->
  Nvmir.Prog.t ->
  report
(** [roots] selects static-analysis roots; [entry]/[args] drive the
    forward run (skipped when absent). [clients] (default 1, at least 1)
    runs that many clients in client order on one heap under one
    dynamic checker, each with its own interpreter, following
    {!Runtime.Interp.clients}: the fuzzer's schedule with no
    preemption. With several clients a failure reads [client c: ...].
    [explore_crash_images] (default false) additionally judges every
    reachable crash image with the sequential oracle, capped at
    [crash_bound] (default {!Runtime.Crash_space.default_bound}) images
    per crash point; [seed] (default 1) makes its sampling
    reproducible. [verify_recovery] (default false) additionally runs
    [recovery_entry] (default ["recover"]) over every image under the
    media-corruption model ({!Recover.start}); its warnings join the
    merged stream. Both tiers read the one recorded run, all clients
    included, in one {!Crash_sweep.sweep}; each is skipped silently
    when its entry is absent. *)

val run_entry : (unit -> 'a) -> ('a, string) result
(** The one handler for a forward run that fails: a runtime error or
    fuel exhaustion becomes the reason {!analyze} reports, prefixed
    [client c: ] when one of several clients failed. *)

val baseline_compile : Nvmir.Prog.t -> float
(** The Table 9 baseline: a full front-end pass (emit, re-parse,
    validate, CFG/CG) with no checking. Elapsed seconds. *)

val violations : report -> Analysis.Warning.t list
val performance_bugs : report -> Analysis.Warning.t list
val pp_report : report Fmt.t
