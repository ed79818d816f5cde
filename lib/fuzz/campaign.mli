(** Fuzzing campaigns over schedule genomes: a deterministic probe /
    switch sweep followed by energy-weighted havoc (guided mode), or a
    uniform draw of the same budget (random mode, the ablation
    baseline). Outcomes are pure functions of (target, mode, seed,
    budget), independent of the pool's domain count. *)

type mode = Guided | Random

val mode_name : mode -> string

type target = {
  tname : string;
  prog : Nvmir.Prog.t;
  model : Analysis.Model.t;
  entry : string;
  entry_args : int list;
  clients : int;
}

type outcome = {
  target : string;
  mode : mode;
  budget : int;
  executions : int;  (** fuzzed schedules run (baseline replay excluded) *)
  nboundaries : int;  (** genome index space, from the baseline replay *)
  novel_schedules : int;
  pair_bits : int;  (** distinct WAW/RAW dependence-pair bits seen *)
  aborted : int;
  baseline_warnings : Analysis.Warning.t list;
      (** fixed-schedule replay (no probe, no switches) *)
  warnings : Analysis.Warning.t list;
      (** union over the whole campaign, deduplicated and sorted *)
  coverage : string;  (** digest of the accumulated seen-map *)
}

val run :
  ?seed:int -> ?budget:int -> ?domains:int -> mode:mode -> target -> outcome

val new_warnings : outcome -> Analysis.Warning.t list
(** The campaign's warnings minus those the fixed-schedule baseline
    replay already reports (matched by {!Analysis.Warning.dedup_key}):
    what the schedule search itself found. *)

val recovers :
  truth:Inject.Mutation.truth -> base:outcome -> outcome -> bool
(** Lenient dynamic-tier match (rule in expected set, expected file),
    minus the (rule, file) pairs the base program's campaign produces
    under the same parameters. *)
