(** Registry over the whole corpus plus the aggregate queries behind the
    Table 1/2/3/8 benches. *)

open Types

val all : program list
val find : string -> program option
val by_framework : framework -> program list

val analyze :
  ?run_dynamic:bool ->
  ?config:Analysis.Config.t ->
  program ->
  Deepmc.Driver.report * Deepmc.Report.score
(** Full pipeline on one corpus program, scored against its ground
    truth. *)

type framework_totals = {
  framework : framework;
  validated : int;
  warnings : int;
  per_rule : (Analysis.Warning.rule_id * (int * int)) list;
      (** rule -> validated/warnings *)
}

val table1 :
  ?run_dynamic:bool ->
  ?config:Analysis.Config.t ->
  unit ->
  framework_totals list
(** The cells of Table 1, measured. *)

val studied_bugs :
  unit -> (program * Deepmc.Report.expectation * discovery) list
(** Tables 2 and 3. *)

val new_bugs : unit -> (program * Deepmc.Report.expectation * discovery) list
(** Table 8. *)

val benign_patterns :
  unit -> (program * Deepmc.Report.expectation * discovery) list
(** The expected false positives (§5.4). *)

val is_violation : Deepmc.Report.expectation -> bool
