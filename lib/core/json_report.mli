(** Machine-readable report output (JSON), for CI integration and editor
    tooling. Self-contained encoder, no external dependency. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val pp : json Fmt.t
val to_string : json -> string

val of_metrics : (string * Obs.Metrics.value) list -> json
(** Encode a registry snapshot: counters/gauges as ints, histograms as
    [{count; sum; buckets: [{lo; n}]}]. *)

val of_witness : Analysis.Witness.t -> json
(** Witness encoding, with the tier tag first and the content
    fingerprint appended. Encode-only: nothing parses witnesses back. *)

val of_warning : Analysis.Warning.t -> json
(** When the warning carries a witness, the object additionally holds its
    ["bundle"] correlation key and the ["witness"] itself. *)

val of_dynamic_summary : Runtime.Dynamic.summary -> json
val of_crash_space : Runtime.Crash_space.report -> json
val of_recovery : Recover.report -> json
val of_report : Driver.report -> json
val of_score : Report.score -> json
