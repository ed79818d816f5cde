(* The per-path rule evaluator the checker used before the rule fold: the
   seven rule functions as whole-path scans over a scoped trace, plus
   witness attachment. It is the reference of the [rules-oracle]
   differential suite, which requires the fold in [Analysis.Rules] to
   report exactly what [run_all] reports on every path. Kept verbatim,
   quadratic scans and all: it is the specification, not an engine. *)

open Analysis

type ctx = Rules.ctx = { model : Model.t; dsg : Dsa.Dsg.t; tenv : Nvmir.Ty.env }

type scoped = Rules.scoped = {
  ev : Event.t;
  idx : int;
  tx_depth : int; (* transaction nesting at this event *)
  tx_id : int; (* innermost enclosing transaction, -1 when none *)
  tx_stack : int list; (* all enclosing transactions, innermost first *)
  epoch : int; (* marked-epoch ordinal, -1 outside epochs *)
  unit_ : int; (* fence-delimited persist-unit ordinal *)
  strand : int; (* enclosing strand id, -1 outside strands *)
}

let has_marked_epochs scoped =
  List.exists
    (fun s -> match s.ev.Event.kind with Event.Epoch_begin -> true | _ -> false)
    scoped

let warn ?origin ctx rule (s : scoped) fmt =
  Fmt.kstr
    (fun message ->
      Warning.make ?origin ~rule ~model:ctx.model ~loc:s.ev.Event.loc
        ~fname:s.ev.Event.fname message)
    fmt

(* Number of fields of the struct a node abstracts, when known. *)
let field_count ctx node =
  let n = Dsa.Arena.canonical (Dsa.Dsg.arena ctx.dsg) node in
  match n.Dsa.Arena.ty with
  | Some (Nvmir.Ty.Named s) -> (
    match Nvmir.Ty.env_find ctx.tenv s with
    | Some sd -> Some (List.length sd.Nvmir.Ty.fields)
    | None -> None)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* V: Unflushed/unlogged write (strict and epoch rows of Table 4) *)

let check_unflushed_write ctx scoped =
  List.filter_map
    (fun s ->
      match s.ev.Event.kind with
      | Event.Write a ->
        (* a flush anywhere later on the path covers the write; the
           cross-epoch-deferral case (covered only by a later epoch's
           flush) is the multiple-writes-at-once rule's domain *)
        let covered_by_flush =
          List.exists
            (fun s' ->
              s'.idx > s.idx
              &&
              match s'.ev.Event.kind with
              | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
              | _ -> false)
            scoped
        in
        let covered_by_log =
          s.tx_id >= 0
          && List.exists
               (fun s' ->
                 List.mem s'.tx_id s.tx_stack
                 &&
                 match s'.ev.Event.kind with
                 | Event.Log b -> Dsa.Aaddr.contained_in a b
                 | _ -> false)
               scoped
        in
        if covered_by_flush || covered_by_log then None
        else
          Some
            (warn ctx Warning.Unflushed_write s
               "write to %a is never flushed or logged before it must be \
                durable"
               Dsa.Aaddr.pp a)
      | _ -> None)
    scoped

(* ------------------------------------------------------------------ *)
(* V: Multiple writes made durable at once *)

let check_multiple_writes_at_once ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* under strict persistency a fence must not batch the durability of
       updates to several distinct objects. (A multi-field update of one
       object drained by a single persist is the idiomatic atomic-object
       update and is not flagged; writes with no flush at all belong to
       the unflushed-write rule.) *)
    let rec scan pending ws fs acc =
      match pending with
      | [] -> List.rev acc
      | s :: rest -> (
        match s.ev.Event.kind with
        | Event.Write a when s.tx_depth = 0 -> scan rest ((s, a) :: ws) fs acc
        | Event.Flush (b, _) when s.tx_depth = 0 -> scan rest ws (b :: fs) acc
        | Event.Fence when s.tx_depth = 0 ->
          let durable =
            List.filter
              (fun (_, a) ->
                List.exists (fun b -> Dsa.Aaddr.contained_in a b) fs)
              ws
          in
          let objects =
            List.sort_uniq Int.compare
              (List.map (fun (_, (a : Dsa.Aaddr.t)) -> a.Dsa.Aaddr.node) durable)
          in
          let acc =
            if List.length objects >= 2 then
              warn ctx Warning.Multiple_writes_at_once s
                "updates to %d distinct persistent objects made durable by a \
                 single persist barrier; strict persistency requires one \
                 barrier per update"
                (List.length objects)
              :: acc
            else acc
          in
          scan rest [] [] acc
        | _ -> scan rest ws fs acc)
    in
    scan scoped [] [] []
  | Model.Epoch | Model.Strand ->
    (* a write of epoch E made durable only by a flush in a later epoch
       E' > E batches the durability of the two epochs together *)
    if not (has_marked_epochs scoped) then []
    else
      List.filter_map
        (fun s ->
          match s.ev.Event.kind with
          | Event.Write a when s.epoch >= 0 ->
            let flushed_in_own =
              List.exists
                (fun s' ->
                  s'.epoch = s.epoch && s'.idx > s.idx
                  &&
                  match s'.ev.Event.kind with
                  | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
                  | _ -> false)
                scoped
            in
            let late_flush =
              List.find_opt
                (fun s' ->
                  s'.epoch > s.epoch
                  &&
                  match s'.ev.Event.kind with
                  | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
                  | _ -> false)
                scoped
            in
            if (not flushed_in_own) && s.tx_id < 0 then
              match late_flush with
              | Some f ->
                Some
                  (warn ctx Warning.Multiple_writes_at_once f
                     "flush makes the epoch-%d write to %a durable together \
                      with epoch-%d data; epoch persistency requires it to \
                      persist at its own epoch boundary"
                     s.epoch Dsa.Aaddr.pp a f.epoch)
              | None -> None
            else None
          | _ -> None)
        scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers *)

let check_missing_persist_barrier ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* after a flush, a fence must occur before new persistent work *)
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Flush (a, _) ->
          let rec forward = function
            | [] -> None (* trace ends: nothing left to order *)
            | s' :: rest when s'.idx <= s.idx -> forward rest
            | s' :: rest -> (
              match s'.ev.Event.kind with
              | Event.Fence -> None
              | Event.Flush _ -> forward rest (* batched flush: V1's domain *)
              | Event.Write _ | Event.Log _ | Event.Tx_begin ->
                Some
                  (warn ctx Warning.Missing_persist_barrier s
                     "flush of %a is not followed by a persist barrier \
                      before the next persistent operation (%a at %a)"
                     Dsa.Aaddr.pp a Event.pp_kind s'.ev.Event.kind
                     Nvmir.Loc.pp s'.ev.Event.loc)
              | _ -> forward rest)
          in
          forward scoped
        | _ -> None)
      scoped
  | Model.Epoch | Model.Strand ->
    (* a persist barrier must close every non-empty epoch *)
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Epoch_end ->
          let in_epoch =
            List.filter
              (fun s' -> s'.epoch = s.epoch && s'.idx < s.idx)
              scoped
          in
          (* only epochs that issued flushes need a closing barrier; an
             epoch whose writes were never flushed at all is the
             unflushed-write / deferred-durability rules' domain *)
          let has_flush =
            List.exists
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Flush _ -> true
                | _ -> false)
              in_epoch
          in
          let last_durability_op =
            List.fold_left
              (fun acc s' ->
                match s'.ev.Event.kind with
                | Event.Write _ | Event.Flush _ | Event.Fence -> Some s'
                | _ -> acc)
              None in_epoch
          in
          let closed =
            match last_durability_op with
            | Some { ev = { Event.kind = Event.Fence; _ }; _ } -> true
            | Some _ | None -> false
          in
          if has_flush && not closed then
            Some
              (warn ctx Warning.Missing_persist_barrier s
                 "epoch ends without a persist barrier; stores of the next \
                  epoch may persist before this epoch's stores")
          else None
        | _ -> None)
      scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers in nested transactions *)

let check_missing_barrier_nested_tx ctx scoped =
  match ctx.model with
  | Model.Strict -> []
  | Model.Epoch | Model.Strand ->
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Tx_end when s.tx_depth >= 2 ->
          let in_tx =
            List.filter
              (fun s' -> s'.tx_id = s.tx_id && s'.idx < s.idx)
              scoped
          in
          let has_persist_work =
            List.exists
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Flush _ -> true
                | _ -> false)
              in_tx
          in
          let last_durability_op =
            List.fold_left
              (fun acc s' ->
                match s'.ev.Event.kind with
                | Event.Write _ | Event.Flush _ | Event.Fence -> Some s'
                | _ -> acc)
              None in_tx
          in
          let closed =
            match last_durability_op with
            | Some { ev = { Event.kind = Event.Fence; _ }; _ } -> true
            | Some _ | None -> false
          in
          if has_persist_work && not closed then
            Some
              (warn ctx Warning.Missing_barrier_nested_tx s
                 "inner transaction ends without a persist barrier; its \
                  writes are not guaranteed durable before the outer \
                  transaction continues")
          else None
        | _ -> None)
      scoped

(* ------------------------------------------------------------------ *)
(* V: Mismatch between program semantics and model implementation *)

(* Consecutive persist units (epochs under the epoch model, fence-
   delimited units otherwise) writing to different parts of the same
   persistent object indicate that a logically-atomic update was split
   across durability boundaries — the Figure 1 hashmap pattern. Updates
   under transaction protection are exempt (the transaction restores
   atomicity). *)
let check_semantic_mismatch ctx scoped =
  let marked =
    match ctx.model with
    | Model.Epoch | Model.Strand -> has_marked_epochs scoped
    | Model.Strict -> false
  in
  let unit_of s = if marked then s.epoch else s.unit_ in
  let writes =
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Write a when s.tx_depth = 0 && (not marked) || (marked && s.epoch >= 0 && s.tx_depth = 0) ->
          Some (s, a)
        | _ -> None)
      scoped
  in
  (* the earlier write must have been persisted within its own unit —
     otherwise the pair is a deferred-durability case handled by the
     multiple-writes-at-once rule *)
  let flushed_in_unit (s1, a1) =
    List.exists
      (fun s' ->
        s'.idx > s1.idx
        && unit_of s' = unit_of s1
        &&
        match s'.ev.Event.kind with
        | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a1 b
        | _ -> false)
      scoped
  in
  (* repeated-protocol exemption: when the later unit also re-writes the
     earlier unit's address, the units are iterations of one update
     protocol (log appends, queue publishes in a loop), not a split
     atomic update *)
  let unit_rewrites u a1 =
    List.exists
      (fun (s, a) -> unit_of s = u && Dsa.Aaddr.may_overlap a a1)
      writes
  in
  List.filter_map
    (fun (s2, a2) ->
      let u2 = unit_of s2 in
      let prior =
        List.find_opt
          (fun (s1, a1) ->
            let u1 = unit_of s1 in
            u1 >= 0 && u2 >= 0 && u1 + 1 = u2 && s1.idx < s2.idx
            && Dsa.Aaddr.same_object a1 a2
            && (not (Dsa.Aaddr.may_overlap a1 a2))
            && flushed_in_unit (s1, a1)
            && not (unit_rewrites u2 a1))
          writes
      in
      match prior with
      | Some (s1, a1) ->
        Some
          (warn ctx Warning.Semantic_mismatch s2
             "consecutive persist units update different parts of the same \
              persistent object (%a here, %a at %a); a crash between them \
              leaves the object half-updated"
             Dsa.Aaddr.pp a2 Dsa.Aaddr.pp a1 Nvmir.Loc.pp s1.ev.Event.loc)
      | None -> None)
    writes

(* ------------------------------------------------------------------ *)
(* V: Data dependencies between strands (static over-approximation) *)

type strand_region = {
  sr_id : int;
  sr_begin_unit : int; (* fence-delimited unit at strand begin *)
  mutable sr_end_unit : int;
  mutable sr_writes : (scoped * Dsa.Aaddr.t) list;
}

(* Strand regions separated by a persist barrier are ordered; regions
   with no barrier between them may persist concurrently and must
   therefore touch disjoint addresses (Table 4, strand row). *)
let check_strand_dependence ctx scoped =
  match ctx.model with
  | Model.Strict | Model.Epoch -> []
  | Model.Strand ->
    let regions = ref [] in
    let open_region = ref None in
    List.iter
      (fun s ->
        match s.ev.Event.kind with
        | Event.Strand_begin n ->
          let r =
            {
              sr_id = n;
              sr_begin_unit = s.unit_;
              sr_end_unit = s.unit_;
              sr_writes = [];
            }
          in
          open_region := Some r;
          regions := r :: !regions
        | Event.Strand_end _ -> (
          match !open_region with
          | Some r ->
            r.sr_end_unit <- s.unit_;
            open_region := None
          | None -> ())
        | Event.Write a -> (
          match !open_region with
          | Some r -> r.sr_writes <- (s, a) :: r.sr_writes
          | None -> ())
        | _ -> ())
      scoped;
    let regions = List.rev !regions in
    let concurrent r1 r2 =
      r1.sr_id <> r2.sr_id
      && not (r2.sr_begin_unit > r1.sr_end_unit || r1.sr_begin_unit > r2.sr_end_unit)
    in
    let rec pairs = function
      | [] -> []
      | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
    in
    List.filter_map
      (fun (r1, r2) ->
        if not (concurrent r1 r2) then None
        else
          List.find_map
            (fun (s2, a2) ->
              List.find_map
                (fun (_, a1) ->
                  if Dsa.Aaddr.may_overlap a1 a2 then
                    Some
                      (warn ctx Warning.Strand_dependence s2
                         "strands %d and %d both write %a; dependent strands \
                          must not persist concurrently"
                         r1.sr_id r2.sr_id Dsa.Aaddr.pp a2)
                  else None)
                r1.sr_writes)
            r2.sr_writes)
      (pairs regions)

(* ------------------------------------------------------------------ *)
(* P: flush-coverage rules (Table 5), one stateful scan:
   - multiple flushes to a persistent object (redundant write-backs)
   - flush an unmodified object / unmodified fields
   - persist the same object multiple times in a transaction
   - durable transaction without persistent writes *)

type tx_state = {
  id : int;
  begin_event : scoped;
  mutable writes : int;
  mutable persisted : Dsa.Aaddr.t list; (* logged or flushed in this tx *)
}

let distinct_fields addrs =
  List.sort_uniq compare
    (List.filter_map (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field) addrs)

let check_flush_coverage ctx scoped =
  let warnings = ref [] in
  let push w = warnings := w :: !warnings in
  let dirty = ref [] in (* written, not yet flushed *)
  let clean = ref [] in (* flushed since last overlapping write *)
  let tx_stack = ref [] in
  let handle_redundant s (b : Dsa.Aaddr.t) ~covered =
    let clean_overlap =
      List.exists (fun f -> Dsa.Aaddr.may_overlap f b) !clean
    in
    if clean_overlap && covered = [] then begin
      let in_tx =
        match !tx_stack with
        | tx :: _ when List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.persisted ->
          Some tx
        | _ -> None
      in
      match in_tx with
      | Some _ ->
        push
          (warn ctx Warning.Persist_same_object_in_tx s
             "%a is persisted again within the same transaction without an \
              intervening modification"
             Dsa.Aaddr.pp b);
        true
      | None ->
        push
          (warn ctx Warning.Multiple_flushes s
             "redundant write-back: %a was already flushed and not modified \
              since"
             Dsa.Aaddr.pp b);
        true
    end
    else false
  in
  List.iter
    (fun s ->
      match s.ev.Event.kind with
      | Event.Write a ->
        dirty := a :: !dirty;
        clean := List.filter (fun f -> not (Dsa.Aaddr.may_overlap f a)) !clean;
        List.iter (fun tx -> tx.writes <- tx.writes + 1) !tx_stack
      | Event.Log b -> (
        (match !tx_stack with
        | tx :: _ ->
          if List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.persisted then
            push
              (warn ctx Warning.Persist_same_object_in_tx s
                 "%a is logged into the transaction more than once"
                 Dsa.Aaddr.pp b);
          tx.persisted <- b :: tx.persisted
        | [] -> ());
        (* logging a whole object whose fields are mostly untouched
           copies unmodified data into the undo log *)
        match (b.Dsa.Aaddr.field, field_count ctx b.Dsa.Aaddr.node) with
        | None, Some nfields when nfields > 1 -> (
          let later_writes =
            List.filter_map
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Write a
                  when s'.idx > s.idx
                       && List.mem s.tx_id s'.tx_stack
                       && Dsa.Aaddr.same_object a b -> Some a
                | _ -> None)
              scoped
          in
          let whole_obj_write =
            List.exists (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None) later_writes
          in
          let written = distinct_fields later_writes in
          match written with
          | [] -> ()
          | _ when whole_obj_write -> ()
          | _ when List.length written < nfields ->
            push
              (warn ctx Warning.Flush_unmodified s
                 "whole object logged but only %d of %d fields are modified \
                  in the transaction; unmodified fields are copied to the \
                  undo log"
                 (List.length written) nfields)
          | _ -> ())
        | _ -> ())
      | Event.Flush (b, origin) -> (
        let covered = List.filter (fun w -> Dsa.Aaddr.may_overlap w b) !dirty in
        let redundant = handle_redundant s b ~covered in
        (if (not redundant) && covered = [] then
           match origin with
           | Event.From_persist ->
             push
               (warn ctx Warning.Durable_tx_no_writes s
                  "durable operation persists %a but no persistent write \
                   precedes it on this path"
                  Dsa.Aaddr.pp b)
           | Event.Plain ->
             push
               (warn ctx Warning.Flush_unmodified s
                  "flush of %a without any preceding modification writes \
                   back unmodified data"
                  Dsa.Aaddr.pp b));
        (* whole-object flush covering only some written fields *)
        (if covered <> [] && b.Dsa.Aaddr.field = None then
           match field_count ctx b.Dsa.Aaddr.node with
           | Some nfields when nfields > 1 ->
             let whole_obj_write =
               List.exists (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None) covered
             in
             let written = distinct_fields covered in
             if (not whole_obj_write) && List.length written < nfields then
               push
                 (warn ctx Warning.Flush_unmodified s
                    "whole object flushed while only %d of %d fields were \
                     modified; unmodified fields are written back"
                    (List.length written) nfields)
           | Some _ | None -> ());
        (* record transaction-scoped persists *)
        (match !tx_stack with
        | tx :: _ -> tx.persisted <- b :: tx.persisted
        | [] -> ());
        clean := b :: !clean;
        dirty := List.filter (fun w -> not (Dsa.Aaddr.contained_in w b)) !dirty)
      | Event.Tx_begin ->
        tx_stack := { id = s.tx_id; begin_event = s; writes = 0; persisted = [] } :: !tx_stack
      | Event.Tx_end -> (
        match !tx_stack with
        | [] -> ()
        | tx :: rest ->
          tx_stack := rest;
          if tx.writes = 0 then
            push
              (warn ctx Warning.Durable_tx_no_writes tx.begin_event
                 "durable transaction commits without any persistent write");
          (* nested writes also count toward enclosing transactions *)
          (match rest with
          | outer :: _ -> outer.writes <- outer.writes + tx.writes
          | [] -> ()))
      | Event.Fence | Event.Epoch_begin | Event.Epoch_end
      | Event.Strand_begin _ | Event.Strand_end _ | Event.Call_mark _
      | Event.Ret_mark _ -> ())
    scoped;
  List.rev !warnings

(* ------------------------------------------------------------------ *)
(* Static witnesses: the minimal event slice behind a warning.

   Built only when witness capture is enabled, from the scoped events
   the rule already walked — the warning's trigger event, the
   flush/fence (or log) events that should order it, the enclosing
   transaction boundaries, and the interprocedural call path recovered
   from the trace's call/ret provenance markers. The disabled path is
   one atomic load per completed trace. *)

let slice_ref ~role (s : scoped) =
  Witness.event_ref ~role
    ~what:(Fmt.str "%a" Event.pp_kind s.ev.Event.kind)
    ~loc:s.ev.Event.loc ~fname:s.ev.Event.fname

(* The call stack enclosing [idx], outermost first, from the
   Call_mark/Ret_mark provenance markers of the merged trace. *)
let call_path_at scoped idx =
  List.rev
    (List.fold_left
       (fun stack s ->
         if s.idx >= idx then stack
         else
           match s.ev.Event.kind with
           | Event.Call_mark f -> f :: stack
           | Event.Ret_mark _ -> ( match stack with [] -> [] | _ :: t -> t)
           | _ -> stack)
       [] scoped)

let first_after scoped idx pred =
  List.find_opt (fun s -> s.idx > idx && pred s) scoped

let last_before scoped idx pred =
  List.fold_left
    (fun acc s -> if s.idx < idx && pred s then Some s else acc)
    None scoped

let static_witness scoped (w : Warning.t) : Witness.t =
  let trigger =
    List.find_opt
      (fun s -> Nvmir.Loc.equal s.ev.Event.loc w.Warning.loc)
      scoped
  in
  match trigger with
  | None -> Witness.Static { s_slice = []; s_call_path = [] }
  | Some t ->
    let covering_flush a =
      first_after scoped t.idx (fun s ->
          match s.ev.Event.kind with
          | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
          | _ -> false)
    in
    let fence_after idx =
      first_after scoped idx (fun s -> s.ev.Event.kind = Event.Fence)
    in
    let tx_pair () =
      if t.tx_id < 0 then []
      else
        let begin_ =
          List.find_opt
            (fun s ->
              s.tx_id = t.tx_id && s.ev.Event.kind = Event.Tx_begin)
            scoped
        in
        let end_ =
          first_after scoped t.idx (fun s ->
              s.tx_id = t.tx_id && s.ev.Event.kind = Event.Tx_end)
        in
        List.filter_map Fun.id
          [
            Option.map (slice_ref ~role:"tx-begin") begin_;
            Option.map (slice_ref ~role:"tx-end") end_;
          ]
    in
    let slice =
      match t.ev.Event.kind with
      | Event.Write a -> (
        slice_ref ~role:"store" t
        ::
        (match covering_flush a with
        | Some f -> (
          slice_ref ~role:"covering-flush" f
          ::
          (match fence_after f.idx with
          | Some fe -> [ slice_ref ~role:"ordering-fence" fe ]
          | None -> []))
        | None -> (
          match
            first_after scoped t.idx (fun s ->
                match s.ev.Event.kind with
                | Event.Log b -> Dsa.Aaddr.contained_in a b
                | _ -> false)
          with
          | Some l -> [ slice_ref ~role:"tx-log" l ]
          | None -> [])))
      | Event.Flush (b, _) ->
        List.filter_map Fun.id
          [
            Option.map (slice_ref ~role:"written-store")
              (last_before scoped t.idx (fun s ->
                   match s.ev.Event.kind with
                   | Event.Write a -> Dsa.Aaddr.contained_in a b
                   | _ -> false));
            Some (slice_ref ~role:"flush" t);
            Option.map (slice_ref ~role:"ordering-fence") (fence_after t.idx);
          ]
      | Event.Fence ->
        (* the stores and flushes this barrier drains: same persist unit *)
        List.filter_map
          (fun s ->
            if s.idx < t.idx && s.unit_ = t.unit_ then
              match s.ev.Event.kind with
              | Event.Write _ -> Some (slice_ref ~role:"drained-store" s)
              | Event.Flush _ -> Some (slice_ref ~role:"drained-flush" s)
              | _ -> None
            else None)
          scoped
        @ [ slice_ref ~role:"persist-barrier" t ]
      | Event.Tx_begin | Event.Tx_end ->
        slice_ref
          ~role:
            (if t.ev.Event.kind = Event.Tx_begin then "tx-begin" else "tx-end")
          t
        :: []
      | _ -> [ slice_ref ~role:"trigger" t ]
    in
    let slice = slice @ if t.ev.Event.kind = Event.Tx_begin then [] else tx_pair () in
    (* keep the slice minimal and in trace order, one entry per event *)
    let slice =
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (r : Witness.event_ref) ->
          let k = (r.Witness.er_role, Nvmir.Loc.to_string r.Witness.er_loc) in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
        slice
    in
    Witness.Static { s_slice = slice; s_call_path = call_path_at scoped t.idx }

let attach_witnesses scoped warnings =
  List.map
    (fun (w : Warning.t) ->
      match w.Warning.witness with
      | Some _ -> w
      | None -> Warning.with_witness w (static_witness scoped w))
    warnings

let run_all ctx scoped =
  let warnings =
    List.concat
      [
        check_unflushed_write ctx scoped;
        check_multiple_writes_at_once ctx scoped;
        check_missing_persist_barrier ctx scoped;
        check_missing_barrier_nested_tx ctx scoped;
        check_semantic_mismatch ctx scoped;
        check_strand_dependence ctx scoped;
        check_flush_coverage ctx scoped;
      ]
  in
  if warnings <> [] && Witness.enabled () then attach_witnesses scoped warnings
  else warnings
