(* Scoring checker output against ground truth.

   Each corpus program carries a list of [expectation]s: the bugs the
   paper reports (validated) and the benign code patterns the paper's
   conservative analysis also flags (false positives). Matching a
   warning to an expectation is by (rule, file, line), i.e. the checker
   must hit the paper's exact coordinates. *)

type location_kind = Lib | Example

type expectation = {
  rule : Analysis.Warning.rule_id;
  file : string;
  line : int;
  validated : bool; (* false: expected false positive (benign pattern) *)
  is_new : bool; (* Table 8 (new) vs Table 3 (studied) *)
  location_kind : location_kind;
  description : string;
  years : float; (* how long the bug existed (Table 8); 0 for studied *)
}

let expectation ?(validated = true) ?(is_new = false) ?(kind = Example)
    ?(years = 0.) ~rule ~file ~line description =
  { rule; file; line; validated; is_new; location_kind = kind; description; years }

let matches (e : expectation) (w : Analysis.Warning.t) =
  e.rule = w.Analysis.Warning.rule
  && String.equal e.file w.Analysis.Warning.loc.Nvmir.Loc.file
  && e.line = w.Analysis.Warning.loc.Nvmir.Loc.line

type score = {
  expectations : expectation list;
  warnings : Analysis.Warning.t list;
  matched : (expectation * Analysis.Warning.t) list;
  missed : expectation list; (* expected but not reported *)
  unexpected : Analysis.Warning.t list; (* reported but not expected *)
}

let score expectations warnings : score =
  let matched =
    List.filter_map
      (fun e ->
        Option.map (fun w -> (e, w)) (List.find_opt (matches e) warnings))
      expectations
  in
  let missed =
    List.filter (fun e -> not (List.exists (matches e) warnings)) expectations
  in
  let unexpected =
    List.filter
      (fun w -> not (List.exists (fun e -> matches e w) expectations))
      warnings
  in
  { expectations; warnings; matched; missed; unexpected }

(* Table 1 semantics: "warnings" is everything DeepMC reports,
   "validated" the subset confirmed as real bugs. *)
let warning_count s = List.length s.warnings
let validated_count s =
  List.length (List.filter (fun (e, _) -> e.validated) s.matched)

let false_positive_count s = warning_count s - validated_count s

let recall s =
  let real = List.filter (fun e -> e.validated) s.expectations in
  let found = List.filter (fun (e, _) -> e.validated) s.matched in
  if real = [] then 1.0
  else float_of_int (List.length found) /. float_of_int (List.length real)

let pp_location_kind ppf = function
  | Lib -> Fmt.string ppf "LIB"
  | Example -> Fmt.string ppf "EP"

let pp_expectation ppf e =
  Fmt.pf ppf "[%s] %s:%d %s (%a%s)"
    (Analysis.Warning.rule_name e.rule)
    e.file e.line e.description pp_location_kind e.location_kind
    (if e.validated then "" else ", benign")
