(** Automated bug fixing — the future work §4.3 sketches. Each warning
    class has a rule-based repair (insert a persist/fence, remove a
    redundant flush or empty transaction, narrow a whole-object
    write-back, move a persist into the updating branch); repairs that
    would need program-semantics knowledge (semantic mismatch, strand
    merging, batching splits) are refused with a reason. *)

type outcome =
  | Fixed of { warning : Analysis.Warning.t; description : string }
  | Skipped of { warning : Analysis.Warning.t; reason : string }

type result = { program : Nvmir.Prog.t; outcomes : outcome list }

val fixed_count : result -> int
val skipped_count : result -> int

val fix_one :
  Nvmir.Prog.t ->
  Analysis.Warning.t ->
  (Nvmir.Prog.t * string, string) Stdlib.result

val apply : Nvmir.Prog.t -> Analysis.Warning.t list -> result

val fix_until_clean :
  ?config:Analysis.Config.t ->
  ?roots:string list ->
  model:Analysis.Model.t ->
  Nvmir.Prog.t ->
  Nvmir.Prog.t * outcome list * Analysis.Warning.t list
(** Repair, re-check, repeat (up to 4 rounds). Returns
    the final program, all outcomes, and the remaining warnings. *)

val pp_outcome : outcome Fmt.t
