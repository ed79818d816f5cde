(** The DeepMC toolkit driver: the end-to-end pipeline of Figure 8.
    Given a program and the persistency-model flag, runs the static
    checker and (optionally) the instrumented execution with the dynamic
    checker, merging both warning streams into one report. *)

type t

val make :
  ?config:Analysis.Config.t -> ?run_dynamic:bool -> Analysis.Model.t -> t

type dynamic_outcome =
  | Dynamic_ok of Runtime.Dynamic.summary * Analysis.Warning.t list
  | Dynamic_skipped of string

type report = {
  model : Analysis.Model.t;
  static : Analysis.Checker.result;
  dynamic : dynamic_outcome;
  warnings : Analysis.Warning.t list;  (** merged, deduplicated *)
  crash_space : Runtime.Crash_space.report option;
      (** reachable crash-image exploration, when requested *)
  recovery : Recover.report option;
      (** recovery-path verification, when requested *)
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
    dynamic run (skipped when absent). [clients] (default 1) executes
    the entry from that many concurrent client domains, each on its own
    heap, under one dynamic checker — warnings stay deterministically
    ordered regardless of interleaving. [explore_crash_images] (default
    false) additionally runs {!Crash_sweep.explore_program} with the
    sequential oracle, capped at [crash_bound] images per crash
    point; [seed] makes its sampling reproducible. [verify_recovery]
    (default false) additionally runs {!Recover.verify} over the
    crash images with the media-corruption model, using
    [recovery_entry] (default ["recover"]); its warnings join the
    merged stream. Skipped silently when either entry is absent. *)

val baseline_compile : Nvmir.Prog.t -> float
(** The Table 9 baseline: a full front-end pass (emit, re-parse,
    validate, CFG/CG) with no checking. Elapsed seconds. *)

val violations : report -> Analysis.Warning.t list
val performance_bugs : report -> Analysis.Warning.t list
val pp_report : report Fmt.t
