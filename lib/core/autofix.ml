(* Automated bug fixing — the future work §4.3 sketches ("Automated bug
   fixing is out of the scope of this work, but we wish to explore it as
   future work").

   Each warning class has a rule-based repair:

   - unflushed write            -> persist the written location right
                                   after the store (inside a transaction
                                   this both logs-by-write and flushes);
   - missing persist barrier    -> insert a fence after the flush
                                   (strict) / before the epoch boundary;
   - missing barrier, nested tx -> insert a fence before the inner
                                   commit;
   - multiple flushes           -> remove the redundant flush;
   - flush of unmodified data   -> remove never-written flushes; narrow
                                   whole-object flushes to the nearest
                                   preceding store's location;
   - persist-same-in-tx         -> remove the duplicate log/flush;
   - durable tx without writes  -> remove empty transactions; move a
                                   no-write persist into the predecessor
                                   branch that actually modifies the
                                   object (the Figure 7 repair);
   - semantic mismatch          -> left to the developer (splitting or
                                   fusing persist units changes program
                                   semantics; the fixer refuses to
                                   guess).

   [apply] is conservative: a fix is applied only when the surrounding
   code matches the expected shape, and every unfixable warning is
   reported as skipped with a reason. Re-checking the fixed program is
   the caller's job (see [fix_until_clean]). *)

type outcome =
  | Fixed of { warning : Analysis.Warning.t; description : string }
  | Skipped of { warning : Analysis.Warning.t; reason : string }

type result = {
  program : Nvmir.Prog.t;
  outcomes : outcome list;
}

let fixed_count r =
  List.length (List.filter (function Fixed _ -> true | Skipped _ -> false) r.outcomes)

let skipped_count r =
  List.length (List.filter (function Skipped _ -> true | Fixed _ -> false) r.outcomes)

let fence = Nvmir.Instr.make Nvmir.Instr.Fence

(* The instruction kinds a warning of each class anchors to; used to
   disambiguate the location lookup. *)
let site_pred (rule : Analysis.Warning.rule_id) (i : Nvmir.Instr.t) =
  match (rule, i.Nvmir.Instr.kind) with
  | Analysis.Warning.Unflushed_write, Nvmir.Instr.Store _
  | ( Analysis.Warning.Missing_persist_barrier,
      (Nvmir.Instr.Flush _ | Nvmir.Instr.Epoch_end) )
  | Analysis.Warning.Missing_barrier_nested_tx, Nvmir.Instr.Tx_end
  | ( Analysis.Warning.Multiple_flushes,
      (Nvmir.Instr.Flush _ | Nvmir.Instr.Persist _) )
  | ( Analysis.Warning.Persist_same_object_in_tx,
      (Nvmir.Instr.Tx_add _ | Nvmir.Instr.Flush _ | Nvmir.Instr.Persist _) )
  | ( Analysis.Warning.Flush_unmodified,
      (Nvmir.Instr.Flush _ | Nvmir.Instr.Persist _ | Nvmir.Instr.Tx_add _) )
  | ( Analysis.Warning.Durable_tx_no_writes,
      (Nvmir.Instr.Tx_begin | Nvmir.Instr.Persist _ | Nvmir.Instr.Flush _) ) ->
    true
  | (Analysis.Warning.Semantic_mismatch | Analysis.Warning.Strand_dependence
    | Analysis.Warning.Multiple_writes_at_once), _ ->
    true (* refused below regardless of the anchor *)
  | _, _ -> false

let fix_one prog (w : Analysis.Warning.t) : (Nvmir.Prog.t * string, string) Stdlib.result =
  match
    Rewrite.find_at_loc ~pred:(site_pred w.Analysis.Warning.rule) prog
      w.Analysis.Warning.loc
  with
  | None -> Error "no instruction at the warning's location"
  | Some (cursor, instr) -> (
    match (w.Analysis.Warning.rule, instr.Nvmir.Instr.kind) with
    | Analysis.Warning.Unflushed_write, Nvmir.Instr.Store { dst; _ } ->
      let persist =
        Nvmir.Instr.make ~loc:instr.Nvmir.Instr.loc
          (Nvmir.Instr.Persist { target = dst; extent = Nvmir.Instr.Exact })
      in
      Ok
        ( Rewrite.insert_after prog cursor [ persist ],
          Fmt.str "inserted persist of %a after the store" Nvmir.Place.pp dst )
    | Analysis.Warning.Missing_persist_barrier, Nvmir.Instr.Flush _ ->
      Ok (Rewrite.insert_after prog cursor [ fence ], "inserted persist barrier after the flush")
    | Analysis.Warning.Missing_persist_barrier, Nvmir.Instr.Epoch_end ->
      Ok
        ( Rewrite.insert_before prog cursor [ fence ],
          "inserted persist barrier before the epoch boundary" )
    | Analysis.Warning.Missing_barrier_nested_tx, Nvmir.Instr.Tx_end ->
      Ok
        ( Rewrite.insert_before prog cursor [ fence ],
          "inserted persist barrier before the inner commit" )
    | Analysis.Warning.Multiple_flushes, (Nvmir.Instr.Flush _ | Nvmir.Instr.Persist _)
      ->
      Ok (Rewrite.remove_at prog cursor, "removed the redundant flush")
    | Analysis.Warning.Persist_same_object_in_tx,
        (Nvmir.Instr.Tx_add _ | Nvmir.Instr.Flush _ | Nvmir.Instr.Persist _) ->
      Ok (Rewrite.remove_at prog cursor, "removed the duplicate log/flush")
    | ( Analysis.Warning.Flush_unmodified,
        (Nvmir.Instr.Flush { target; extent } | Nvmir.Instr.Persist { target; extent }) )
      -> (
      match
        Rewrite.nearest_store_before prog cursor ~base:(Nvmir.Place.base target)
      with
      | Some written when extent = Nvmir.Instr.Object -> (
        (* narrow the whole-object write-back to the modified field *)
        let narrowed =
          match instr.Nvmir.Instr.kind with
          | Nvmir.Instr.Persist _ ->
            Nvmir.Instr.Persist { target = written; extent = Nvmir.Instr.Exact }
          | _ -> Nvmir.Instr.Flush { target = written; extent = Nvmir.Instr.Exact }
        in
        Ok
          ( Rewrite.replace_at prog cursor
              (Nvmir.Instr.make ~loc:instr.Nvmir.Instr.loc narrowed),
            Fmt.str "narrowed the whole-object write-back to %a"
              Nvmir.Place.pp written ))
      | Some _ | None ->
        (* nothing was written: the write-back is pure overhead *)
        Ok (Rewrite.remove_at prog cursor, "removed the write-back of unmodified data"))
    | Analysis.Warning.Flush_unmodified, Nvmir.Instr.Tx_add _ ->
      Error "narrowing an undo-log registration needs developer intent"
    | Analysis.Warning.Durable_tx_no_writes, Nvmir.Instr.Tx_begin -> (
      (* empty transaction: drop the begin and its matching end *)
      match Nvmir.Prog.find_func prog cursor.Rewrite.in_func with
      | None -> Error "function disappeared"
      | Some f -> (
        match Nvmir.Func.find_block f cursor.Rewrite.in_block with
        | None -> Error "block disappeared"
        | Some b ->
          let rest =
            List.filteri (fun idx _ -> idx > cursor.Rewrite.index) b.Nvmir.Func.instrs
          in
          let has_write =
            List.exists
              (fun (i : Nvmir.Instr.t) ->
                match i.Nvmir.Instr.kind with
                | Nvmir.Instr.Store _ | Nvmir.Instr.Call _ -> true
                | _ -> false)
              rest
          in
          if has_write then
            Error "transaction spans writes on another path; not provably empty"
          else
            let prog =
              Rewrite.map_block prog ~in_func:cursor.Rewrite.in_func
                ~in_block:cursor.Rewrite.in_block (fun instrs ->
                  let dropped_begin =
                    List.filteri (fun idx _ -> idx <> cursor.Rewrite.index) instrs
                  in
                  (* drop the first tx_end after the begin *)
                  let dropped = ref false in
                  List.filter
                    (fun (i : Nvmir.Instr.t) ->
                      match i.Nvmir.Instr.kind with
                      | Nvmir.Instr.Tx_end when not !dropped ->
                        dropped := true;
                        false
                      | _ -> true)
                    dropped_begin)
            in
            Ok (prog, "removed the empty transaction")))
    | Analysis.Warning.Durable_tx_no_writes, Nvmir.Instr.Persist { target; _ }
      -> (
      (* Figure 7: move the persist into the branch that writes *)
      let base = Nvmir.Place.base target in
      let preds =
        List.filter
          (fun label ->
            Rewrite.block_stores_to prog ~in_func:cursor.Rewrite.in_func ~label
              ~base)
          (Rewrite.predecessors prog ~in_func:cursor.Rewrite.in_func
             ~label:cursor.Rewrite.in_block)
      in
      match preds with
      | [] -> Error "no predecessor modifies the object; repair unclear"
      | labels ->
        let prog = Rewrite.remove_at prog cursor in
        let prog =
          List.fold_left
            (fun prog label ->
              Rewrite.append_to_block prog ~in_func:cursor.Rewrite.in_func
                ~in_block:label [ instr ])
            prog labels
        in
        Ok
          ( prog,
            Fmt.str "moved the persist into the updating branch(es) %s"
              (String.concat ", " labels) ))
    | Analysis.Warning.Semantic_mismatch, _ ->
      Error
        "restoring update atomicity (a transaction around both persist \
         units) changes program structure; left to the developer"
    | Analysis.Warning.Strand_dependence, _ ->
      Error "merging or ordering strands needs program-semantics knowledge"
    | Analysis.Warning.Multiple_writes_at_once, _ ->
      Error "splitting batched durability points needs developer intent"
    | _, _ ->
      Error
        (Fmt.str "no repair template for %s at %a"
           (Analysis.Warning.rule_name w.Analysis.Warning.rule)
           Nvmir.Instr.pp instr))

(* Apply repairs for a list of warnings. Warnings are processed
   most-recently-located first so earlier cursors stay valid is NOT
   guaranteed in general; instead we re-locate each warning in the
   current program (fix_one searches by source location, which repairs
   preserve), so ordering does not matter. *)
let apply prog (warnings : Analysis.Warning.t list) : result =
  let prog, outcomes =
    List.fold_left
      (fun (prog, outcomes) w ->
        match fix_one prog w with
        | Ok (prog', description) ->
          (prog', Fixed { warning = w; description } :: outcomes)
        | Error reason -> (prog, Skipped { warning = w; reason } :: outcomes))
      (prog, []) warnings
  in
  { program = prog; outcomes = List.rev outcomes }

(* Fix-and-recheck loop: repair, re-run the checker, repeat until no fix
   applies or the round limit is reached. Returns the final program, the
   accumulated outcomes, and the remaining warnings. *)
let fix_until_clean ?(max_rounds = 4) ?config ?roots ~model prog =
  let rec go round prog acc =
    let checked = Analysis.Checker.check ?config ?roots ~model prog in
    let warnings = checked.Analysis.Checker.warnings in
    if warnings = [] || round >= max_rounds then (prog, List.rev acc, warnings)
    else
      let r = apply prog warnings in
      if fixed_count r = 0 then (prog, List.rev acc, warnings)
      else go (round + 1) r.program (List.rev_append r.outcomes acc)
  in
  go 0 prog []

let pp_outcome ppf = function
  | Fixed { warning; description } ->
    Fmt.pf ppf "FIXED   %a %s: %s" Nvmir.Loc.pp warning.Analysis.Warning.loc
      (Analysis.Warning.rule_name warning.Analysis.Warning.rule)
      description
  | Skipped { warning; reason } ->
    Fmt.pf ppf "SKIPPED %a %s: %s" Nvmir.Loc.pp warning.Analysis.Warning.loc
      (Analysis.Warning.rule_name warning.Analysis.Warning.rule)
      reason
