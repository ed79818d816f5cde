(** Mutation-based persistency-bug injection (§6d of DESIGN.md).

    Each operator takes a warning-clean program and re-introduces one
    violation of a Table 4/5 rule class by deleting, moving, duplicating
    or widening a single durability instruction. Site selection is
    deliberately conservative — a site is only used when the operator
    provably re-creates the target rule violation at a known file:line —
    so every mutant carries machine-checkable ground truth. *)

(** The operator catalog, mirroring the rule classes of Tables 4/5. *)
type operator =
  | Delete_flush  (** drop the unique flush covering a write *)
  | Delete_fence  (** drop the barrier ordering a flush *)
  | Reorder_fence  (** hoist a fence above the flush it orders *)
  | Hoist_write  (** move a write past its covering flush *)
  | Duplicate_flush  (** write back the same line twice *)
  | Widen_flush  (** flush a whole object for one dirty field *)
  | Drop_tx_add  (** drop a transaction's undo-log registration *)
  | Split_strand  (** split a strand between dependent writes *)
  | Strip_crc_guard  (** a CRC check in [recover] always passes *)
  | Silence_recovery  (** [recover]'s nonzero (reject) return becomes 0 *)
  | Drift_recovery_store
      (** a constant store in [recover] becomes read-modify-write, so
          recovery is no longer a fix-point *)

val all_operators : operator list
val operator_name : operator -> string
val operator_of_string : string -> operator option
val pp_operator : operator Fmt.t

(** The detector tier expected to catch the operator's mutants: every
    class except strand splitting is in the static rules' scope, and
    the corruption operators are visible only to the recovery executor
    ({!Evaluate.run_recovery}). *)
type tier = Static_tier | Dynamic_tier | Recovery_tier

val tier_name : tier -> string
val operator_tier : operator -> tier

(** An expected warning: any of [rules] at [file:line]. Redundant
    write-backs split into two rule ids depending on transaction
    context, hence a list. *)
type expect = {
  rules : Analysis.Warning.rule_id list;
  file : string;
  line : int;
}

val expect_matches : expect -> Analysis.Warning.t -> bool

type truth = {
  operator : operator;
  tier : tier;
  primary : expect;  (** the violation the mutant must trigger *)
  collateral : expect list;
      (** warnings the mutation is allowed to cause as a side effect;
          matching these counts neither as detection nor as a false
          positive *)
}

type mutant = {
  id : string;  (** [base/operator-name/k] *)
  base : string;
  model : Analysis.Model.t;
  prog : Nvmir.Prog.t;
  truth : truth;
}

val mutate :
  ?operators:operator list ->
  ?config:Analysis.Config.t ->
  base:string ->
  model:Analysis.Model.t ->
  roots:string list ->
  Nvmir.Prog.t ->
  mutant list
(** Enumerate every sound injection site in functions reachable from
    [roots] and apply each operator, one mutation per mutant. The input
    program must already be warning-clean under [model] (see
    {!Evaluate.bases}); sites are deterministic, so the mutant list is a
    pure function of the program. [config] selects the DSG that admits
    sites. *)
