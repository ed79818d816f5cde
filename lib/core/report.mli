(** Scoring checker output against ground truth. Each corpus program
    carries [expectation]s — the paper's bugs (validated) and the benign
    patterns its conservative analysis also flags. A warning matches an
    expectation by exact (rule, file, line). *)

type location_kind = Lib | Example

type expectation = {
  rule : Analysis.Warning.rule_id;
  file : string;
  line : int;
  validated : bool;  (** false: expected false positive *)
  is_new : bool;  (** Table 8 (new) vs Table 3 (studied) *)
  location_kind : location_kind;
  description : string;
  years : float;  (** bug age (Table 8); 0 for studied bugs *)
}

val expectation :
  ?validated:bool ->
  ?is_new:bool ->
  ?kind:location_kind ->
  ?years:float ->
  rule:Analysis.Warning.rule_id ->
  file:string ->
  line:int ->
  string ->
  expectation

val matches : expectation -> Analysis.Warning.t -> bool

type score = {
  expectations : expectation list;
  warnings : Analysis.Warning.t list;
  matched : (expectation * Analysis.Warning.t) list;
  missed : expectation list;
  unexpected : Analysis.Warning.t list;
}

val score : expectation list -> Analysis.Warning.t list -> score

val warning_count : score -> int
(** Everything reported — the denominator of Table 1's cells. *)

val validated_count : score -> int
(** Matched real bugs — the numerator of Table 1's cells. *)

val false_positive_count : score -> int
val recall : score -> float
val pp_location_kind : location_kind Fmt.t
val pp_expectation : expectation Fmt.t
