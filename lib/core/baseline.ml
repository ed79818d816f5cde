(* A PMTest-like baseline checker, used by the evaluation's comparison
   and ablation benches (§5.2 "Programmer's effort", §6 Related work).

   Like PMTest, the baseline
   - requires the developer to annotate the functions to check
     (DeepMC needs only the model flag);
   - verifies generic crash-consistency properties — unflushed writes
     and missing barriers — with no notion of the intended persistency
     model, so model-specific violations (semantic mismatch, epoch
     batching, nested-transaction barriers) and performance bugs are
     out of scope;
   - is object-granular rather than field-sensitive.

   Implementation: run the shared trace/rule machinery field-insensitive
   with the rule output filtered to the generic subset and to the
   annotated functions. *)

let generic_rules =
  [ Analysis.Warning.Unflushed_write; Analysis.Warning.Missing_persist_barrier ]

type result = {
  warnings : Analysis.Warning.t list;
  annotated : string list;
}

let check ~annotated prog : result =
  let static =
    Analysis.Checker.check
      ~config:
        { Analysis.Config.default with Analysis.Config.field_sensitive = false }
      ~model:Analysis.Model.Strict prog
  in
  let warnings =
    List.filter
      (fun (w : Analysis.Warning.t) ->
        List.mem w.Analysis.Warning.rule generic_rules
        && List.mem w.Analysis.Warning.fname annotated)
      static.Analysis.Checker.warnings
  in
  { warnings; annotated }

(* Annotation burden: PMTest-style tools need explicit checker calls in
   every annotated function; DeepMC needs one compiler flag. We quantify
   this as the number of annotation sites the baseline requires. *)
let annotation_sites prog ~annotated =
  List.fold_left
    (fun acc fname ->
      match Nvmir.Prog.find_func prog fname with
      | None -> acc
      | Some f ->
        (* one annotation per persistent operation, like PMTest's
           TX_CHECKER/ordering assertions *)
        let ops = ref 0 in
        Nvmir.Func.iter_instrs
          (fun _ i -> if Nvmir.Instr.is_persistency_relevant i then incr ops)
          f;
        acc + !ops)
    0 annotated
