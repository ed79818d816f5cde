(* Checker warnings. DeepMC reports WARNINGs for both persistency-model
   violations and performance bugs (§4.1); each carries the rule that
   fired, the source location, and a human-readable explanation. *)

type category = Model_violation | Performance

(* The nine warning classes of Table 1 plus the strand-dependence rule
   of Table 4, plus the recovery-path rule class of the media-corruption
   model (reported by the recovery executor, invisible to the static
   tier). Rule metadata lives in [Rules]. *)
type rule_id =
  | Multiple_writes_at_once
  | Unflushed_write
  | Missing_persist_barrier
  | Missing_barrier_nested_tx
  | Semantic_mismatch
  | Strand_dependence
  | Multiple_flushes
  | Flush_unmodified
  | Persist_same_object_in_tx
  | Durable_tx_no_writes
  | Unguarded_recovery_read
  | Silent_corruption_accept
  | Non_idempotent_recovery
  | Recovery_crash

let all_rules =
  [
    Multiple_writes_at_once;
    Unflushed_write;
    Missing_persist_barrier;
    Missing_barrier_nested_tx;
    Semantic_mismatch;
    Strand_dependence;
    Multiple_flushes;
    Flush_unmodified;
    Persist_same_object_in_tx;
    Durable_tx_no_writes;
    Unguarded_recovery_read;
    Silent_corruption_accept;
    Non_idempotent_recovery;
    Recovery_crash;
  ]

let rule_name = function
  | Multiple_writes_at_once -> "multiple-writes-at-once"
  | Unflushed_write -> "unflushed-write"
  | Missing_persist_barrier -> "missing-persist-barrier"
  | Missing_barrier_nested_tx -> "missing-barrier-nested-tx"
  | Semantic_mismatch -> "semantic-mismatch"
  | Strand_dependence -> "strand-dependence"
  | Multiple_flushes -> "multiple-flushes"
  | Flush_unmodified -> "flush-unmodified"
  | Persist_same_object_in_tx -> "persist-same-object-in-tx"
  | Durable_tx_no_writes -> "durable-tx-no-writes"
  | Unguarded_recovery_read -> "unguarded-recovery-read"
  | Silent_corruption_accept -> "silent-corruption-accept"
  | Non_idempotent_recovery -> "non-idempotent-recovery"
  | Recovery_crash -> "recovery-crash"

(* Table 1 row descriptions. *)
let rule_description = function
  | Multiple_writes_at_once -> "Multiple writes made durable at once"
  | Unflushed_write -> "Unflushed write"
  | Missing_persist_barrier -> "Missing persist barriers"
  | Missing_barrier_nested_tx -> "Missing persist barriers in nested transactions"
  | Semantic_mismatch -> "Mismatch between program semantics and model"
  | Strand_dependence -> "Data dependencies between strands"
  | Multiple_flushes -> "Multiple flushes to a persistent object"
  | Flush_unmodified -> "Flush an unmodified object"
  | Persist_same_object_in_tx ->
    "Persist the same object multiple times in a transaction"
  | Durable_tx_no_writes -> "Durable transaction without persistent writes"
  | Unguarded_recovery_read ->
    "Recovery reads possibly-corrupt media without a CRC guard"
  | Silent_corruption_accept ->
    "Recovery accepts a corrupt image without flagging it"
  | Non_idempotent_recovery -> "Recovery is not idempotent"
  | Recovery_crash -> "Recovery dies on a crash image"

let category_of_rule = function
  | Multiple_writes_at_once | Unflushed_write | Missing_persist_barrier
  | Missing_barrier_nested_tx | Semantic_mismatch | Strand_dependence
  | Unguarded_recovery_read | Silent_corruption_accept
  | Non_idempotent_recovery | Recovery_crash -> Model_violation
  | Multiple_flushes | Flush_unmodified | Persist_same_object_in_tx
  | Durable_tx_no_writes -> Performance

let pp_category ppf = function
  | Model_violation -> Fmt.string ppf "model violation"
  | Performance -> Fmt.string ppf "performance"

type origin = Static | Dynamic

type t = {
  rule : rule_id;
  model : Model.t; (* the model the program was checked against *)
  loc : Nvmir.Loc.t;
  fname : string; (* function containing the warning *)
  message : string;
  origin : origin;
  witness : Witness.t option; (* evidence, when capture is enabled *)
}

let make ?(origin = Static) ?witness ~rule ~model ~loc ~fname message =
  { rule; model; loc; fname; message; origin; witness }

let with_witness t w = { t with witness = Some w }

let bundle_fingerprint t =
  Witness.bundle_fingerprint ~rule:(rule_name t.rule)
    ~file:t.loc.Nvmir.Loc.file ~line:t.loc.Nvmir.Loc.line

let category t = category_of_rule t.rule

let pp ppf t =
  Fmt.pf ppf "@[<hov 2>WARNING [%s] %a (%a, %a model, %s):@ %s@]"
    (rule_name t.rule) Nvmir.Loc.pp t.loc pp_category (category t) Model.pp
    t.model
    (match t.origin with Static -> "static" | Dynamic -> "dynamic")
    t.message

(* Warnings are deduplicated by rule and location: different traces
   through the same code report one warning, like a compiler would. *)
let dedup_key t = (t.rule, t.loc.Nvmir.Loc.file, t.loc.Nvmir.Loc.line)

let dedup warnings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun w ->
      let k = dedup_key w in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    warnings

let sort warnings =
  List.sort
    (fun a b ->
      match Nvmir.Loc.compare a.loc b.loc with
      | 0 -> compare (rule_name a.rule) (rule_name b.rule)
      | c -> c)
    warnings
