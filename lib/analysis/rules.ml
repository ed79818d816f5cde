(* The checking rules of Table 4 (persistency-model violations) and
   Table 5 (performance bugs), applied to collected traces.

   The rules run as one forward fold over a path's "scoped" events —
   the event list annotated with transaction nesting, epoch ordinals
   and strand ids. Each rule keeps a small persistent state (pending
   unflushed writes, flushes since the last fence, the open regions,
   ...) and settles a warning at the event that decides it; what
   depends on the rest of the path is settled when the path ends.
   Every step is a pure function of the state and the next event, so
   the checker walks each root's expansion tree with the fold as its
   state ([Trace.walk]) and steps a prefix many paths share once.
   Messages are formatted only on demand. Rule metadata (which models a
   rule applies to, its formal statement) lives in [catalog] so the
   toolkit can print Tables 4 and 5 from the registry itself. *)

type ctx = { model : Model.t; dsg : Dsa.Dsg.t; tenv : Nvmir.Ty.env }

(* ------------------------------------------------------------------ *)
(* Scoped events *)

type scoped = {
  ev : Event.t;
  idx : int;
  tx_depth : int; (* transaction nesting at this event *)
  tx_id : int; (* innermost enclosing transaction, -1 when none *)
  tx_stack : int list; (* all enclosing transactions, innermost first *)
  epoch : int; (* marked-epoch ordinal, -1 outside epochs *)
  unit_ : int; (* fence-delimited persist-unit ordinal *)
  strand : int; (* enclosing strand id, -1 outside strands *)
}

(* Number of fields of the struct a node abstracts, when known. *)
let field_count ctx node =
  let n = Dsa.Arena.canonical (Dsa.Dsg.arena ctx.dsg) node in
  match n.Dsa.Arena.ty with
  | Some (Nvmir.Ty.Named s) -> (
    match Nvmir.Ty.env_find ctx.tenv s with
    | Some sd -> Some (List.length sd.Nvmir.Ty.fields)
    | None -> None)
  | Some _ | None -> None

(* A warning the fold has decided, not yet formatted: the rule, the
   event it is reported at, its rank in the order the rule lists its
   warnings on a whole path, and its message on demand. *)
type found = {
  rule : Warning.rule_id;
  at : scoped;
  rank : int;
  sub : int; (* tie-break within [rank] *)
  message : unit -> string;
}

let found ?(sub = 0) rule at ~rank message = { rule; at; rank; sub; message }

(* [List.filter] that returns [l] itself when it keeps every element,
   so an unchanged rule state stays physically unchanged. *)
let rec filter_shared p l =
  match l with
  | [] -> l
  | x :: t ->
    let t' = filter_shared p t in
    if p x then if t' == t then l else x :: t' else t'

(* Working sets grouped by the address's DSG node: containment and
   overlap, the only relations the rules ask about, hold only within
   one node, so a flush or write looks at its own node's entries. *)
module By_node = Map.Make (Int)

let on_node m (a : Dsa.Aaddr.t) =
  Option.value ~default:[] (By_node.find_opt a.Dsa.Aaddr.node m)

(* [f] over [a]'s node's entries; [m] itself when [f] changes nothing *)
let update_node m (a : Dsa.Aaddr.t) f =
  let l = on_node m a in
  let l' = f l in
  if l' == l then m
  else if l' = [] then By_node.remove a.Dsa.Aaddr.node m
  else By_node.add a.Dsa.Aaddr.node l' m

(* add [a] to its node's set of addresses *)
let add_addr m a = update_node m a (fun l -> if List.mem a l then l else a :: l)

(* What a region's write/flush/fence events add up to so far: whether
   one of them was a flush, and whether the last one was a fence. *)
type dur = { flushed : bool; fenced : bool }

let dur0 = { flushed = false; fenced = false }

let dur_step d (k : Event.kind) =
  match k with
  | Event.Write _ -> if d.fenced then { d with fenced = false } else d
  | Event.Flush _ ->
    if d.flushed && not d.fenced then d else { flushed = true; fenced = false }
  | Event.Fence -> if d.fenced then d else { d with fenced = true }
  | _ -> d

(* a region that flushed and was not closed by a fence *)
let unbarriered d = d.flushed && not d.fenced

(* ------------------------------------------------------------------ *)
(* V: Unflushed/unlogged write (strict and epoch rows of Table 4)

   A write is pending until a later flush covers it, or a log registers
   it into one of its enclosing transactions (before or after the
   write); whatever is still pending when the path ends is reported.
   The cross-epoch-deferral case (covered only by a later epoch's
   flush) is the multiple-writes-at-once rule's domain. *)

type unflushed = {
  uw_pending : (scoped * Dsa.Aaddr.t) list By_node.t; (* newest first *)
  uw_logs : (int * Dsa.Aaddr.t) list;
      (* the logs of the open transactions, by innermost transaction *)
}

let unflushed0 = { uw_pending = By_node.empty; uw_logs = [] }

let unflushed_step r s =
  match s.ev.Event.kind with
  | Event.Write a ->
    let logged =
      s.tx_id >= 0
      && List.exists (fun (_, b) -> Dsa.Aaddr.contained_in a b) r.uw_logs
    in
    if logged then r
    else
      { r with uw_pending = update_node r.uw_pending a (fun l -> (s, a) :: l) }
  | Event.Flush (b, _) ->
    let p =
      update_node r.uw_pending b
        (filter_shared (fun (_, a) -> not (Dsa.Aaddr.contained_in a b)))
    in
    if p == r.uw_pending then r else { r with uw_pending = p }
  | Event.Log b when s.tx_id >= 0 ->
    {
      uw_pending =
        update_node r.uw_pending b
          (filter_shared (fun ((w : scoped), a) ->
               not
                 (List.mem s.tx_id w.tx_stack && Dsa.Aaddr.contained_in a b)));
      uw_logs = (s.tx_id, b) :: r.uw_logs;
    }
  | Event.Tx_end when r.uw_logs <> [] ->
    { r with uw_logs = List.filter (fun (t, _) -> t <> s.tx_id) r.uw_logs }
  | _ -> r

let unflushed_close r =
  By_node.fold
    (fun _ l out ->
      List.fold_left
        (fun out ((s : scoped), a) ->
          found Warning.Unflushed_write s ~rank:s.idx (fun () ->
              Fmt.str
                "write to %a is never flushed or logged before it must be \
                 durable"
                Dsa.Aaddr.pp a)
          :: out)
        out l)
    r.uw_pending []

(* ------------------------------------------------------------------ *)
(* V: Multiple writes made durable at once *)

type batch = {
  mw_writes : (scoped * Dsa.Aaddr.t) list;
      (* strict: this unit's writes outside transactions; epoch: writes
         of an epoch no flush has covered yet *)
  mw_flushes : Dsa.Aaddr.t list; (* strict: this unit's flushes *)
  mw_out : found list;
}

let batch0 = { mw_writes = []; mw_flushes = []; mw_out = [] }

let batch_step ctx r s =
  match (ctx.model, s.ev.Event.kind) with
  (* under strict persistency a fence must not batch the durability of
     updates to several distinct objects. (A multi-field update of one
     object drained by a single persist is the idiomatic atomic-object
     update and is not flagged; writes with no flush at all belong to
     the unflushed-write rule.) *)
  | Model.Strict, _ when s.tx_depth > 0 -> r
  | Model.Strict, Event.Write a ->
    { r with mw_writes = (s, a) :: r.mw_writes }
  | Model.Strict, Event.Flush (b, _) ->
    { r with mw_flushes = b :: r.mw_flushes }
  | Model.Strict, Event.Fence ->
    let objects =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun (_, (a : Dsa.Aaddr.t)) ->
             if
               List.exists (fun b -> Dsa.Aaddr.contained_in a b) r.mw_flushes
             then Some a.Dsa.Aaddr.node
             else None)
           r.mw_writes)
    in
    let n = List.length objects in
    if n >= 2 then
      {
        mw_writes = [];
        mw_flushes = [];
        mw_out =
          found Warning.Multiple_writes_at_once s ~rank:s.idx (fun () ->
              Fmt.str
                "updates to %d distinct persistent objects made durable by \
                 a single persist barrier; strict persistency requires one \
                 barrier per update"
                n)
          :: r.mw_out;
      }
    else if r.mw_writes = [] && r.mw_flushes = [] then r
    else { r with mw_writes = []; mw_flushes = [] }
  | Model.Strict, _ -> r
  (* a write of epoch E made durable only by a flush in a later epoch
     E' > E batches the durability of the two epochs together. Epochs
     are numbered in path order and never resume, so the first covering
     flush decides: in E it persists the write on time, later it is
     late. *)
  | (Model.Epoch | Model.Strand), Event.Write a
    when s.epoch >= 0 && s.tx_id < 0 ->
    { r with mw_writes = (s, a) :: r.mw_writes }
  | (Model.Epoch | Model.Strand), Event.Flush (b, _) when s.epoch >= 0 ->
    let out = ref r.mw_out in
    let pending =
      filter_shared
        (fun ((w : scoped), a) ->
          if not (Dsa.Aaddr.contained_in a b) then true
          else begin
            if w.epoch < s.epoch then
              out :=
                found Warning.Multiple_writes_at_once s ~rank:w.idx
                  (fun () ->
                    Fmt.str
                      "flush makes the epoch-%d write to %a durable \
                       together with epoch-%d data; epoch persistency \
                       requires it to persist at its own epoch boundary"
                      w.epoch Dsa.Aaddr.pp a s.epoch)
                :: !out;
            false
          end)
        r.mw_writes
    in
    if pending == r.mw_writes then r
    else { r with mw_writes = pending; mw_out = !out }
  | (Model.Epoch | Model.Strand), _ -> r

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers *)

type barrier = {
  mp_flushes : (scoped * Dsa.Aaddr.t) list;
      (* strict: flushes no fence has ordered yet, newest first *)
  mp_epoch : dur; (* epoch: the open epoch's events *)
  mp_outside : dur; (* epoch: every event outside epochs so far *)
  mp_out : found list;
}

let barrier0 =
  { mp_flushes = []; mp_epoch = dur0; mp_outside = dur0; mp_out = [] }

let barrier_step ctx r s =
  match (ctx.model, s.ev.Event.kind) with
  (* after a flush, a fence must occur before new persistent work;
     further flushes are batched (V1's domain) *)
  | Model.Strict, Event.Flush (a, _) ->
    { r with mp_flushes = (s, a) :: r.mp_flushes }
  | Model.Strict, Event.Fence ->
    if r.mp_flushes = [] then r else { r with mp_flushes = [] }
  | Model.Strict, (Event.Write _ | Event.Log _ | Event.Tx_begin)
    when r.mp_flushes <> [] ->
    let next = s.ev in
    let out =
      List.fold_left
        (fun out ((f : scoped), a) ->
          found Warning.Missing_persist_barrier f ~rank:f.idx (fun () ->
              Fmt.str
                "flush of %a is not followed by a persist barrier before the \
                 next persistent operation (%a at %a)"
                Dsa.Aaddr.pp a Event.pp_kind next.Event.kind Nvmir.Loc.pp
                next.Event.loc)
          :: out)
        r.mp_out (List.rev r.mp_flushes)
    in
    { r with mp_flushes = []; mp_out = out }
  | Model.Strict, _ -> r
  (* a persist barrier must close every non-empty epoch; only epochs
     that issued flushes need one, an epoch whose writes were never
     flushed at all is the unflushed-write / deferred-durability rules'
     domain *)
  | (Model.Epoch | Model.Strand), Event.Epoch_begin ->
    { r with mp_epoch = dur0 }
  | (Model.Epoch | Model.Strand), Event.Epoch_end ->
    if unbarriered (if s.epoch >= 0 then r.mp_epoch else r.mp_outside) then
      {
        r with
        mp_out =
          found Warning.Missing_persist_barrier s ~rank:s.idx (fun () ->
              "epoch ends without a persist barrier; stores of the next epoch \
               may persist before this epoch's stores")
          :: r.mp_out;
      }
    else r
  | ( (Model.Epoch | Model.Strand),
      ((Event.Write _ | Event.Flush _ | Event.Fence) as k) ) ->
    if s.epoch >= 0 then
      let d = dur_step r.mp_epoch k in
      if d == r.mp_epoch then r else { r with mp_epoch = d }
    else
      let d = dur_step r.mp_outside k in
      if d == r.mp_outside then r else { r with mp_outside = d }
  | (Model.Epoch | Model.Strand), _ -> r

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers in nested transactions *)

type nested = {
  nt_open : dur list;
      (* per open transaction, innermost first: the events it encloses
         directly (not through an inner transaction) *)
  nt_out : found list;
}

let nested0 = { nt_open = []; nt_out = [] }

let nested_step ctx r s =
  match ctx.model with
  | Model.Strict -> r
  | Model.Epoch | Model.Strand -> (
    match (s.ev.Event.kind, r.nt_open) with
    | Event.Tx_begin, _ -> { r with nt_open = dur0 :: r.nt_open }
    | Event.Tx_end, d :: outer ->
      let out =
        if s.tx_depth >= 2 && unbarriered d then
          found Warning.Missing_barrier_nested_tx s ~rank:s.idx (fun () ->
              "inner transaction ends without a persist barrier; its writes \
               are not guaranteed durable before the outer transaction \
               continues")
          :: r.nt_out
        else r.nt_out
      in
      { nt_open = outer; nt_out = out }
    | (Event.Write _ | Event.Flush _ | Event.Fence), d :: outer ->
      let d' = dur_step d s.ev.Event.kind in
      if d' == d then r else { r with nt_open = d' :: outer }
    | _ -> r)

(* ------------------------------------------------------------------ *)
(* V: Mismatch between program semantics and model implementation

   Consecutive persist units (epochs under the epoch model, fence-
   delimited units otherwise) writing to different parts of the same
   persistent object indicate that a logically-atomic update was split
   across durability boundaries — the Figure 1 hashmap pattern. Updates
   under transaction protection are exempt (the transaction restores
   atomicity).

   Units are numbered in path order and never resume, so a unit's
   warnings are settled when it closes: its writes are all known then
   (for the repeated-protocol exemption), and so is which writes of the
   unit before it were flushed within their own unit. Under the epoch
   and strand models the numbering is by marked epoch when the path has
   any; the first epoch begin therefore restarts the rule, dropping
   what the fence numbering settled. *)

type mismatch = {
  sm_epochs : bool; (* numbering by marked epochs, not fence units *)
  sm_unit : int; (* the open unit *)
  sm_writes : (scoped * Dsa.Aaddr.t * bool) list;
      (* its writes outside transactions, newest first, flagged once a
         flush within the unit covers them *)
  sm_prev_unit : int;
  sm_prev : (scoped * Dsa.Aaddr.t) list;
      (* the writes of [sm_prev_unit] flushed within it, oldest first *)
  sm_out : found list;
}

let mismatch0 =
  {
    sm_epochs = false;
    sm_unit = 0;
    sm_writes = [];
    sm_prev_unit = -2;
    sm_prev = [];
    sm_out = [];
  }

let mismatch_close_unit r =
  let writes = List.rev r.sm_writes in
  let out =
    if r.sm_prev = [] || r.sm_prev_unit + 1 <> r.sm_unit then r.sm_out
    else
      (* repeated-protocol exemption: when this unit also re-writes the
         earlier unit's address, the units are iterations of one update
         protocol (log appends, queue publishes in a loop), not a split
         atomic update *)
      let rewrites a1 =
        List.exists (fun (_, a, _) -> Dsa.Aaddr.may_overlap a a1) writes
      in
      List.fold_left
        (fun out ((s2 : scoped), a2, _) ->
          match
            List.find_opt
              (fun (_, a1) ->
                Dsa.Aaddr.same_object a1 a2
                && (not (Dsa.Aaddr.may_overlap a1 a2))
                && not (rewrites a1))
              r.sm_prev
          with
          | Some ((s1 : scoped), a1) ->
            found Warning.Semantic_mismatch s2 ~rank:s2.idx (fun () ->
                Fmt.str
                  "consecutive persist units update different parts of the \
                   same persistent object (%a here, %a at %a); a crash \
                   between them leaves the object half-updated"
                  Dsa.Aaddr.pp a2 Dsa.Aaddr.pp a1 Nvmir.Loc.pp
                  s1.ev.Event.loc)
            :: out
          | None -> out)
        r.sm_out writes
  in
  {
    r with
    sm_prev_unit = r.sm_unit;
    (* the earlier write must have been persisted within its own unit —
       otherwise the pair is a deferred-durability case handled by the
       multiple-writes-at-once rule *)
    sm_prev =
      List.filter_map
        (fun (s, a, flushed) -> if flushed then Some (s, a) else None)
        writes;
    sm_writes = [];
    sm_out = out;
  }

let mismatch_step ctx r s =
  match s.ev.Event.kind with
  | Event.Epoch_begin
    when (not r.sm_epochs) && not (Model.equal ctx.model Model.Strict) ->
    { mismatch0 with sm_epochs = true; sm_unit = -1 }
  | (Event.Write _ | Event.Flush _) as k ->
    let u = if r.sm_epochs then s.epoch else s.unit_ in
    (* outside marked epochs nothing counts *)
    if u < 0 then r
    else
      let r =
        if u = r.sm_unit then r
        else { (mismatch_close_unit r) with sm_unit = u }
      in
      (match k with
      | Event.Write a when s.tx_depth = 0 ->
        { r with sm_writes = (s, a, false) :: r.sm_writes }
      | Event.Flush (b, _)
        when List.exists
               (fun (_, a, flushed) ->
                 (not flushed) && Dsa.Aaddr.contained_in a b)
               r.sm_writes ->
        {
          r with
          sm_writes =
            List.map
              (fun (w, a, flushed) ->
                (w, a, flushed || Dsa.Aaddr.contained_in a b))
              r.sm_writes;
        }
      | _ -> r)
  | _ -> r

let mismatch_close r = (mismatch_close_unit r).sm_out

(* ------------------------------------------------------------------ *)
(* V: Data dependencies between strands (static over-approximation)

   Strand regions separated by a persist barrier are ordered; regions
   with no barrier between them may persist concurrently and must
   therefore touch disjoint addresses (Table 4, strand row). A pair is
   decided when its later region closes: the earlier one is final by
   then. *)

type region = {
  sr_id : int;
  sr_no : int; (* ordinal of the region on the path *)
  sr_begin_unit : int; (* fence-delimited unit at strand begin *)
  sr_end_unit : int;
  sr_writes : (scoped * Dsa.Aaddr.t) list; (* newest first *)
}

type strands = {
  sd_closed : region list; (* newest first *)
  sd_open : region option;
  sd_out : found list;
}

let strands0 = { sd_closed = []; sd_open = None; sd_out = [] }

let concurrent r1 r2 =
  r1.sr_id <> r2.sr_id
  && not
       (r2.sr_begin_unit > r1.sr_end_unit || r1.sr_begin_unit > r2.sr_end_unit)

(* close [r2]: one warning per earlier concurrent region, at the latest
   write of [r2] that overlaps a write of it *)
let strands_close_region r r2 =
  let out =
    List.fold_left
      (fun out r1 ->
        if not (concurrent r1 r2) then out
        else
          match
            List.find_opt
              (fun (_, a2) ->
                List.exists
                  (fun (_, a1) -> Dsa.Aaddr.may_overlap a1 a2)
                  r1.sr_writes)
              r2.sr_writes
          with
          | Some (s2, a2) ->
            found Warning.Strand_dependence s2 ~rank:r1.sr_no ~sub:r2.sr_no
              (fun () ->
                Fmt.str
                  "strands %d and %d both write %a; dependent strands must \
                   not persist concurrently"
                  r1.sr_id r2.sr_id Dsa.Aaddr.pp a2)
            :: out
          | None -> out)
      r.sd_out r.sd_closed
  in
  { sd_closed = r2 :: r.sd_closed; sd_open = None; sd_out = out }

let strands_step ctx r s =
  match ctx.model with
  | Model.Strict | Model.Epoch -> r
  | Model.Strand -> (
    match (s.ev.Event.kind, r.sd_open) with
    | Event.Strand_begin n, _ ->
      let r =
        match r.sd_open with Some o -> strands_close_region r o | None -> r
      in
      {
        r with
        sd_open =
          Some
            {
              sr_id = n;
              sr_no = List.length r.sd_closed;
              sr_begin_unit = s.unit_;
              sr_end_unit = s.unit_;
              sr_writes = [];
            };
      }
    | Event.Strand_end _, Some o ->
      strands_close_region r { o with sr_end_unit = s.unit_ }
    | Event.Write a, Some o ->
      { r with sd_open = Some { o with sr_writes = (s, a) :: o.sr_writes } }
    | _ -> r)

let strands_close r =
  match r.sd_open with
  | Some o -> (strands_close_region r o).sd_out
  | None -> r.sd_out

(* ------------------------------------------------------------------ *)
(* P: flush-coverage rules (Table 5), one stateful scan:
   - multiple flushes to a persistent object (redundant write-backs)
   - flush an unmodified object / unmodified fields
   - persist the same object multiple times in a transaction
   - durable transaction without persistent writes *)

type cov_tx = {
  ct_begin : scoped;
  ct_written : bool; (* a persistent write happened while it was open *)
  ct_persisted : Dsa.Aaddr.t list; (* logged or flushed in this tx *)
}

(* A whole-object log waiting for its transaction to end: logging a
   whole object whose fields are mostly untouched copies unmodified
   data into the undo log. *)
type whole_log = {
  wl_at : scoped;
  wl_node : int;
  wl_nfields : int;
  wl_fields : string list; (* fields written since, in the transaction *)
  wl_whole : bool; (* ... or the whole object *)
}

type coverage = {
  fc_dirty : Dsa.Aaddr.t list By_node.t; (* written, not yet flushed *)
  fc_clean : Dsa.Aaddr.t list By_node.t;
      (* flushed since last overlapping write *)
  fc_txs : cov_tx list; (* innermost first *)
  fc_logs : whole_log list;
  fc_out : found list;
}

let coverage0 =
  {
    fc_dirty = By_node.empty;
    fc_clean = By_node.empty;
    fc_txs = [];
    fc_logs = [];
    fc_out = [];
  }

let distinct_fields addrs =
  List.sort_uniq compare
    (List.filter_map (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field) addrs)

let settle_log out wl =
  let written = List.length wl.wl_fields in
  if written = 0 || wl.wl_whole || written >= wl.wl_nfields then out
  else
    found Warning.Flush_unmodified wl.wl_at ~rank:wl.wl_at.idx ~sub:1
      (fun () ->
        Fmt.str
          "whole object logged but only %d of %d fields are modified in the \
           transaction; unmodified fields are copied to the undo log"
          written wl.wl_nfields)
    :: out

(* a write marks every open transaction written; the innermost ones
   that are not yet are a prefix of the stack *)
let rec mark_written = function
  | tx :: rest when not tx.ct_written ->
    { tx with ct_written = true } :: mark_written rest
  | txs -> txs

let coverage_step ctx r s =
  match s.ev.Event.kind with
  | Event.Write a ->
    {
      r with
      fc_dirty = add_addr r.fc_dirty a;
      fc_clean =
        update_node r.fc_clean a
          (filter_shared (fun f -> not (Dsa.Aaddr.may_overlap f a)));
      fc_txs = mark_written r.fc_txs;
      fc_logs =
        List.map
          (fun wl ->
            if wl.wl_node <> a.Dsa.Aaddr.node then wl
            else
              match a.Dsa.Aaddr.field with
              | None -> { wl with wl_whole = true }
              | Some f when List.mem f wl.wl_fields -> wl
              | Some f -> { wl with wl_fields = f :: wl.wl_fields })
          r.fc_logs;
    }
  | Event.Log b ->
    let out, txs =
      match r.fc_txs with
      | tx :: outer ->
        let out =
          if List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.ct_persisted
          then
            found Warning.Persist_same_object_in_tx s ~rank:s.idx (fun () ->
                Fmt.str "%a is logged into the transaction more than once"
                  Dsa.Aaddr.pp b)
            :: r.fc_out
          else r.fc_out
        in
        (out, { tx with ct_persisted = b :: tx.ct_persisted } :: outer)
      | [] -> (r.fc_out, [])
    in
    (* only writes inside the log's transaction count, so a log outside
       any transaction has none *)
    let logs =
      match b.Dsa.Aaddr.field with
      | None when s.tx_id >= 0 -> (
        match field_count ctx b.Dsa.Aaddr.node with
        | Some nfields when nfields > 1 ->
          {
            wl_at = s;
            wl_node = b.Dsa.Aaddr.node;
            wl_nfields = nfields;
            wl_fields = [];
            wl_whole = false;
          }
          :: r.fc_logs
        | Some _ | None -> r.fc_logs)
      | _ -> r.fc_logs
    in
    { r with fc_txs = txs; fc_logs = logs; fc_out = out }
  | Event.Flush (b, origin) ->
    let covered =
      List.filter (fun w -> Dsa.Aaddr.may_overlap w b) (on_node r.fc_dirty b)
    in
    let out = r.fc_out in
    let out =
      if covered <> [] then out
      else if
        List.exists (fun f -> Dsa.Aaddr.may_overlap f b) (on_node r.fc_clean b)
      then
        match r.fc_txs with
        | tx :: _
          when List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.ct_persisted
          ->
          found Warning.Persist_same_object_in_tx s ~rank:s.idx (fun () ->
              Fmt.str
                "%a is persisted again within the same transaction without \
                 an intervening modification"
                Dsa.Aaddr.pp b)
          :: out
        | _ ->
          found Warning.Multiple_flushes s ~rank:s.idx (fun () ->
              Fmt.str
                "redundant write-back: %a was already flushed and not \
                 modified since"
                Dsa.Aaddr.pp b)
          :: out
      else
        match origin with
        | Event.From_persist ->
          found Warning.Durable_tx_no_writes s ~rank:s.idx (fun () ->
              Fmt.str
                "durable operation persists %a but no persistent write \
                 precedes it on this path"
                Dsa.Aaddr.pp b)
          :: out
        | Event.Plain ->
          found Warning.Flush_unmodified s ~rank:s.idx (fun () ->
              Fmt.str
                "flush of %a without any preceding modification writes back \
                 unmodified data"
                Dsa.Aaddr.pp b)
          :: out
    in
    (* whole-object flush covering only some written fields *)
    let out =
      if covered = [] || b.Dsa.Aaddr.field <> None then out
      else
        match field_count ctx b.Dsa.Aaddr.node with
        | Some nfields when nfields > 1 ->
          let whole_obj_write =
            List.exists
              (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None)
              covered
          in
          let written = List.length (distinct_fields covered) in
          if (not whole_obj_write) && written < nfields then
            found Warning.Flush_unmodified s ~rank:s.idx ~sub:1 (fun () ->
                Fmt.str
                  "whole object flushed while only %d of %d fields were \
                   modified; unmodified fields are written back"
                  written nfields)
            :: out
          else out
        | Some _ | None -> out
    in
    {
      r with
      fc_txs =
        (match r.fc_txs with
        | tx :: outer ->
          { tx with ct_persisted = b :: tx.ct_persisted } :: outer
        | [] -> []);
      fc_clean = add_addr r.fc_clean b;
      fc_dirty =
        update_node r.fc_dirty b
          (filter_shared (fun w -> not (Dsa.Aaddr.contained_in w b)));
      fc_out = out;
    }
  | Event.Tx_begin ->
    let tx = { ct_begin = s; ct_written = false; ct_persisted = [] } in
    { r with fc_txs = tx :: r.fc_txs }
  | Event.Tx_end -> (
    match r.fc_txs with
    | [] -> r
    | tx :: outer ->
      (* nested writes also count toward enclosing transactions: they
         were marked when the write happened *)
      let out =
        if tx.ct_written then r.fc_out
        else
          found Warning.Durable_tx_no_writes tx.ct_begin ~rank:s.idx
            (fun () ->
              "durable transaction commits without any persistent write")
          :: r.fc_out
      in
      let settled, logs =
        List.partition (fun wl -> wl.wl_at.tx_id = s.tx_id) r.fc_logs
      in
      {
        r with
        fc_txs = outer;
        fc_logs = logs;
        fc_out = List.fold_left settle_log out (List.rev settled);
      })
  | Event.Fence | Event.Epoch_begin | Event.Epoch_end | Event.Strand_begin _
  | Event.Strand_end _ | Event.Call_mark _ | Event.Ret_mark _ ->
    r

let coverage_close r = List.fold_left settle_log r.fc_out (List.rev r.fc_logs)

(* ------------------------------------------------------------------ *)
(* Registry *)

type rule_meta = {
  id : Warning.rule_id;
  models : Model.t list; (* models the rule applies to *)
  statement : string; (* the formal rule as stated in Table 4 / Table 5 *)
}

let catalog =
  [
    {
      id = Warning.Unflushed_write;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "A write W to address A1 must be followed by a flush F of A2 with \
         A1 contained in A2 (strict: A1 = A2; epoch: within the same epoch), \
         or be logged into an enclosing transaction.";
    };
    {
      id = Warning.Multiple_writes_at_once;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "A persist barrier P must be preceded by only one write W (strict); \
         a write of epoch E must not first become durable via a flush in a \
         later epoch (epoch).";
    };
    {
      id = Warning.Missing_persist_barrier;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "Strict: every flush is followed by a persist barrier before the \
         next persistent operation. Epoch: every non-empty epoch E1 ends \
         with a persist barrier before epoch E2 begins.";
    };
    {
      id = Warning.Missing_barrier_nested_tx;
      models = [ Model.Epoch ];
      statement =
        "For any transaction E1 nested inside E2, a persist barrier must \
         close E1 before control returns to E2.";
    };
    {
      id = Warning.Semantic_mismatch;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "For consecutive persist units E1 and E2 writing addresses A1 in O1 \
         and A2 in O2, O1 must differ from O2 (a logically-atomic object \
         update must not straddle a durability boundary).";
    };
    {
      id = Warning.Strand_dependence;
      models = [ Model.Strand ];
      statement =
        "For any concurrent strands S1 and S2 operating on addresses A1 and \
         A2, A1 and A2 must be disjoint.";
    };
    {
      id = Warning.Multiple_flushes;
      models = Model.all;
      statement =
        "For any two flushes F1 and F2 of addresses A1 and A2 with no \
         intervening write, A1 and A2 must be disjoint.";
    };
    {
      id = Warning.Flush_unmodified;
      models = Model.all;
      statement =
        "For a flush F of address A1 there must be a preceding write W to \
         A2 with A1 = A2; flushing or logging a whole object requires all \
         its fields to be modified.";
    };
    {
      id = Warning.Persist_same_object_in_tx;
      models = Model.all;
      statement =
        "Within one transaction, a persistent object must be logged or \
         persisted at most once unless modified in between.";
    };
    {
      id = Warning.Durable_tx_no_writes;
      models = Model.all;
      statement =
        "Every durable transaction (or persist operation) must contain at \
         least one persistent write.";
    };
    (* Recovery-path rules: fired by the media-corruption recovery
       executor ([Recover]), never by the static trace rules above. *)
    {
      id = Warning.Unguarded_recovery_read;
      models = Model.all;
      statement =
        "A recovery-path read of a slot the crash left in flight (and \
         possibly media-corrupt) must be preceded by a CRC check covering \
         that slot.";
    };
    {
      id = Warning.Silent_corruption_accept;
      models = Model.all;
      statement =
        "If any slot of the recovered image is still corrupt when recovery \
         returns, recovery must signal failure (nonzero return) rather \
         than accept the image.";
    };
    {
      id = Warning.Non_idempotent_recovery;
      models = Model.all;
      statement =
        "Running recovery a second time over an already-recovered image \
         must leave persistent state unchanged (recovery is a fix-point).";
    };
  ]

let applicable_rules model =
  List.filter (fun m -> List.exists (Model.equal model) m.models) catalog

(* Every completed path's rule evaluation ends in [rules_close], so
   this counter covers them all. *)
let m_rules_fired =
  Obs.Metrics.counter "rules.fired"
    ~desc:"rule evaluations (one per rule per completed trace)"

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

(* ------------------------------------------------------------------ *)
(* The fold: every rule's state, stepped together. *)

type rules = {
  unflushed : unflushed;
  batch : batch;
  barrier : barrier;
  nested : nested;
  mismatch : mismatch;
  strands : strands;
  coverage : coverage;
}

let rules0 =
  {
    unflushed = unflushed0;
    batch = batch0;
    barrier = barrier0;
    nested = nested0;
    mismatch = mismatch0;
    strands = strands0;
    coverage = coverage0;
  }

let rules_step ctx r s =
  match s.ev.Event.kind with
  | Event.Call_mark _ | Event.Ret_mark _ -> r (* no rule reads markers *)
  | _ ->
    {
      unflushed = unflushed_step r.unflushed s;
      batch = batch_step ctx r.batch s;
      barrier = barrier_step ctx r.barrier s;
      nested = nested_step ctx r.nested s;
      mismatch = mismatch_step ctx r.mismatch s;
      strands = strands_step ctx r.strands s;
      coverage = coverage_step ctx r.coverage s;
    }

(* A path's warnings, rule by rule (the four flush-coverage rules as
   one) and each rule's in the order it lists them over the whole path,
   whatever order the fold settled them in. *)
let rules_close r =
  Obs.Metrics.add m_rules_fired 7;
  let ranked l =
    List.sort
      (fun a b ->
        match Int.compare a.rank b.rank with
        | 0 -> Int.compare a.sub b.sub
        | c -> c)
      l
  in
  List.concat
    [
      ranked (unflushed_close r.unflushed);
      ranked r.batch.mw_out;
      ranked r.barrier.mp_out;
      ranked r.nested.nt_out;
      ranked (mismatch_close r.mismatch);
      ranked (strands_close r.strands);
      ranked (coverage_close r.coverage);
    ]

let to_warnings ctx (path : scoped list Lazy.t) founds =
  let ws =
    List.map
      (fun f ->
        Warning.make ~rule:f.rule ~model:ctx.model ~loc:f.at.ev.Event.loc
          ~fname:f.at.ev.Event.fname (f.message ()))
      founds
  in
  if ws <> [] && Witness.enabled () then attach_witnesses (Lazy.force path) ws
  else ws

(* ------------------------------------------------------------------ *)
(* The scoper: the counters that annotate each event of a path with its
   transaction nesting, epoch, persist unit and strand. *)

module Scope = struct
  type t = {
    idx : int;
    tx_counter : int;
    epoch_counter : int;
    tx_stack : int list;
    epoch : int;
    unit_ : int;
    strand : int;
  }

  let start =
    {
      idx = 0;
      tx_counter = 0;
      epoch_counter = 0;
      tx_stack = [];
      epoch = -1;
      unit_ = 0;
      strand = -1;
    }

  (* the event's scoped form and the counters after it *)
  let step (st : t) (e : Event.t) : scoped * t =
    let mk tx_stack epoch strand =
      {
        ev = e;
        idx = st.idx;
        tx_depth = List.length tx_stack;
        tx_id = (match tx_stack with [] -> -1 | t :: _ -> t);
        tx_stack;
        epoch;
        unit_ = st.unit_;
        strand;
      }
    in
    let push s st = (s, { st with idx = st.idx + 1 }) in
    match e.Event.kind with
    | Event.Tx_begin ->
      let id = st.tx_counter in
      let stack = id :: st.tx_stack in
      push
        (mk stack st.epoch st.strand)
        { st with tx_counter = id + 1; tx_stack = stack }
    | Event.Tx_end ->
      (* the Tx_end event itself belongs to the transaction it closes *)
      let popped = match st.tx_stack with [] -> [] | _ :: t -> t in
      push (mk st.tx_stack st.epoch st.strand) { st with tx_stack = popped }
    | Event.Epoch_begin ->
      let id = st.epoch_counter in
      push
        (mk st.tx_stack id st.strand)
        { st with epoch_counter = id + 1; epoch = id }
    | Event.Epoch_end ->
      push (mk st.tx_stack st.epoch st.strand) { st with epoch = -1 }
    | Event.Strand_begin n ->
      push (mk st.tx_stack st.epoch n) { st with strand = n }
    | Event.Strand_end _ ->
      push (mk st.tx_stack st.epoch st.strand) { st with strand = -1 }
    | Event.Fence ->
      push (mk st.tx_stack st.epoch st.strand) { st with unit_ = st.unit_ + 1 }
    | Event.Write _ | Event.Flush _ | Event.Log _ | Event.Call_mark _
    | Event.Ret_mark _ -> push (mk st.tx_stack st.epoch st.strand) st
end

(* ------------------------------------------------------------------ *)
(* Incremental checking: the scoped path.

   Events are fed into a per-path state as the path is enumerated; the
   state is a persistent value, so forking an in-flight path at a branch
   point is one pointer copy and siblings share their common scoped
   prefix. When a path completes, [finish] runs the rule fold over its
   scoped events. *)

module Incremental = struct
  type state = {
    scope : Scope.t;
    rev_scoped : scoped list; (* shared with forked siblings *)
  }

  let start = { scope = Scope.start; rev_scoped = [] }

  let step st e =
    let s, scope = Scope.step st.scope e in
    { scope; rev_scoped = s :: st.rev_scoped }

  let feed st trace = List.fold_left step st trace

  let finish ctx st =
    let path = List.rev st.rev_scoped in
    to_warnings ctx (Lazy.from_val path)
      (rules_close (List.fold_left (rules_step ctx) rules0 path))
end

let scope_trace trace =
  List.rev (Incremental.feed Incremental.start trace).Incremental.rev_scoped

(* ------------------------------------------------------------------ *)
(* The fold with its scoper: what a checker keeps per path position.
   It holds no scoped events of its own; a path's are rebuilt only to
   attach witnesses. *)

module Fold = struct
  type t = { scope : Scope.t; rules : rules }
  type nonrec found = found

  let start = { scope = Scope.start; rules = rules0 }

  let step ctx t e =
    let s, scope = Scope.step t.scope e in
    { scope; rules = rules_step ctx t.rules s }

  let close t = rules_close t.rules

  let key f =
    (f.rule, f.at.ev.Event.loc.Nvmir.Loc.file, f.at.ev.Event.loc.Nvmir.Loc.line)

  let warnings ctx path founds =
    to_warnings ctx (lazy (scope_trace (Lazy.force path))) founds
end
