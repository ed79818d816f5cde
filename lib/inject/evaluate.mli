(** Recall/precision evaluation of the detectors over a mutant
    population (DESIGN.md §6d).

    Base programs are made warning-clean first (corpus programs via
    {!Deepmc.Autofix.fix_until_clean}; synthetic programs are generated
    clean), every {!Mutation.operator} is applied at every sound site,
    and each mutant goes through one {!Deepmc.Driver.analyze} with every
    enabled tier, one pool task per mutant. This module only scores the
    driver's reports. Detection is measured against the mutants'
    machine-readable ground truth:

    - static: a delta warning (not in the base program's residual
      warning set) matching the truth's rule set at its file:line;
    - dynamic: a delta warning matching rule and file (the online
      checker reports at observation sites, so lines are not pinned);
    - crash explorer: strictly more inconsistent crash images than the
      base program under the same seed and bound;
    - recovery: a delta recovery warning (not in the base program's
      recovery warnings) matching the truth's rule set at its
      file:line. Applicable when the program defines [recover]. *)

type base = {
  bname : string;
  model : Analysis.Model.t;
  prog : Nvmir.Prog.t;  (** warning-clean (up to refused autofixes) *)
  roots : string list;
  entry : string option;
  entry_args : int list;
  config : Analysis.Config.t;
      (** the analysis options every static step ran under; clearing
          [offset_sensitive] reproduces the historical pointer-arith
          blind spot for ablation benches *)
  static_baseline : (Analysis.Warning.rule_id * string * int) list;
  dynamic_baseline : (Analysis.Warning.rule_id * string) list;
}

val corpus_bases :
  ?config:Analysis.Config.t ->
  ?framework:Corpus.Types.framework ->
  ?name:string ->
  unit ->
  base list
(** Corpus programs (optionally one framework or one program), each
    parsed and pushed through [Autofix.fix_until_clean] under its
    framework's model; refused repairs stay in [static_baseline].
    [config] (default {!Analysis.Config.default}) configures autofix,
    baselines, mutation-site admission and static scoring alike — one
    DSG configuration end to end. Clear its [offset_sensitive] to
    reproduce the exact legacy §5.4 blind-spot population and results
    (the fuzz bench's false-negative corpus). The offset-aware pipeline
    admits more mutation sites, so the static-tier denominator grows
    with it. *)

val synth_bases :
  ?config:Analysis.Config.t ->
  seed:int ->
  count:int ->
  nfuncs:int ->
  unit ->
  base list
(** [count] clean generator programs seeded [seed, seed+1, ...]. *)

val exemplar_bases : ?config:Analysis.Config.t -> unit -> base list
(** The hand-written strand-model program ({!Exemplar}). *)

val recovery_operators : Mutation.operator list
(** The corruption operators ({!Mutation.Recovery_tier}). They damage
    the {e backward} path, so no trace rule can see them. *)

val recovery_bases : unit -> base list
(** The {!Corpus.Recovery} programs as evaluation bases; the recovery
    operators admit no site on the paper corpus. No autofix: the
    guarded base is recovery-clean by construction and the unguarded
    base's warnings become its baseline (its mutants must add something
    new to count as detected). *)

(** Per-detector outcome for one mutant. *)
type detection = {
  applicable : bool;  (** detector could run (e.g. entry point exists) *)
  hit : bool;
  fp : int;  (** delta warnings matching neither primary nor collateral *)
}

type mutant_result = {
  mutant : Mutation.mutant;
  static_d : detection;
  dynamic_d : detection;
  crash_d : detection;
  recovery_d : detection;
}

type cell = { applicable : int; detected : int; fp : int }

val cell_recall : cell -> float option
val cell_precision : cell -> float option

(** One matrix row: an operator crossed with the four detectors. *)
type row = {
  operator : Mutation.operator;
  mutants : int;
  static_c : cell;
  dynamic_c : cell;
  crash_c : cell;
  recovery_c : cell;
}

type summary = {
  seed : int;
  bases : int;
  total_mutants : int;
  rows : row list;
  static_tier_mutants : int;
  static_tier_detected : int;
  static_tier_recall : float;  (** 1.0 when the tier has no mutants *)
  known_blind_spot : int;
      (** static-tier fence mutants (delete-fence / reorder-fence)
          missed by the static checker. Historically the DSG
          pointer-arith alias gap (10 mutants); the {!Dsa.Aaddr.offset}
          lattice closed it, so this is 0 unless offsets are ablated —
          pinned so regressions in either direction are visible *)
  bases_verified : (string * Recover.report) list;
      (** the recovery report of every base that defines [recover],
          keyed by base name *)
  results : mutant_result list;
}

val is_known_blind_spot : mutant_result -> bool

val run :
  ?operators:Mutation.operator list ->
  ?seed:int ->
  ?dynamic:bool ->
  ?crash:bool ->
  ?crash_bound:int ->
  base list ->
  summary
(** Mutate every base and evaluate the enabled detectors over the whole
    population on the default pool. Each base is analysed once with
    crash exploration and recovery verification, for the crash and
    recovery baselines; each mutant is analysed once with every enabled
    tier. Recovery verification is always on and applies
    to programs that define [recover]. [seed] (default 1) drives
    crash-image sampling and the corruption model, and [crash_bound]
    (default 192) caps the images per crash point for both; static and
    dynamic evaluation are deterministic, so the summary is a pure
    function of (bases, operators, seed, bound). *)

val false_negatives : summary -> mutant_result list
(** Mutants missed by their expected tier's detector. *)

val save_false_negatives : dir:string -> summary -> string list
(** Persist each false negative as a parseable .nvmir file (ground
    truth in header comments); returns the paths written. *)

val known_blind_spot_of_corpus : dir:string -> int
(** Recount the blind spot from a corpus persisted by
    {!save_false_negatives}, by parsing the ground-truth headers — the
    independent source the [known_blind_spot] field is checked
    against. 0 when [dir] does not exist. *)

val to_json : summary -> Deepmc.Json_report.json
(** The matrix, the campaign-level fields the gates read
    ([static_tier_*], [known_blind_spot], [false_negatives],
    [all_detected]: no false negatives) and [bases_verified]. *)

val pp_summary : summary Fmt.t
