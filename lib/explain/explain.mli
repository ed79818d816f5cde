(** Warning provenance: correlate every tier's witnesses for one
    program into evidence bundles, and render them as an annotated IR
    listing (`deepmc explain`) or machine-readable JSON.

    The bundle key is {!Analysis.Witness.bundle_fingerprint} — the
    tier-independent (rule, file, line) identity — so a bug the static
    checker, the dynamic checker and the fuzzer each observed renders
    as one bundle with one witness per tier. Crash-space witnesses
    (which carry no warning) form their own bundles keyed by witness
    fingerprint. *)

type evidence = {
  ev_tier : string;
  ev_warning : Analysis.Warning.t option;
      (** [None] for crash-space image witnesses *)
  ev_witness : Analysis.Witness.t;
  ev_fingerprint : string;
}

type bundle = {
  b_fingerprint : string;
  b_rule : string option;
  b_loc : Nvmir.Loc.t option;
  b_fname : string option;
  b_evidence : evidence list;
}

val tiers : bundle -> string list
(** Observing tiers, in static..recover order. *)

val build : ?fuzz:Fuzz.Campaign.outcome -> Deepmc.Driver.report -> bundle list
(** Collect witnesses from the report's tiers (read before the driver's
    cross-tier dedup) plus an optional fuzz campaign, correlate, and
    order deterministically: located bundles by (loc, rule), crash-space
    bundles after by fingerprint. *)

val annotate_listing : Nvmir.Prog.t -> bundle list -> string
(** The canonical IR listing with per-line [;; #N:role] event markers. *)

val skipped :
  entry:string option -> Deepmc.Driver.report -> (string * string) list
(** The tiers the run asked for and could not run, each with its reason,
    in static..recover order: the dynamic tier when [entry] was given,
    the crash and recovery tiers when requested. *)

val render :
  file:string -> model:Analysis.Model.t -> prog:Nvmir.Prog.t ->
  skipped:(string * string) list -> bundle list -> string
(** Human-readable explain output: a [tier: skipped (reason)] line per
    {!skipped} tier, then the bundle blocks and the annotated listing. *)

val to_json :
  file:string -> model:Analysis.Model.t -> skipped:(string * string) list ->
  bundle list -> Deepmc.Json_report.json
(** [{"file", "model", "bundles"}], plus a ["skipped"] object mapping
    each {!skipped} tier to its reason when there is one, keyed as in
    {!Deepmc.Json_report} ([dynamic], [crash_space], [recovery]). *)
