(* Reference transaction log: the list-log heap [Runtime.Pmem] ran before
   its undo log kept per-slot stamps. Membership is a [List.exists] over
   the open transaction's whole log (O(n) a store, O(n^2) a
   transaction), the commit groups the log per object in a fresh
   [Hashtbl], and rollback searches every open log. Its transaction
   code is kept verbatim; what the differential in [test_pmem.ml] does
   not drive is left out (listeners, the change journal, eviction, media
   corruption, CRCs, object types and names), and objects sit in a
   [Hashtbl]. So that property can require the same [slot_view],
   [durable_value] and [stats] after every operation of random
   programs. It shares [Runtime.Pmem]'s types so results compare
   directly. *)

type slot_state = Runtime.Pmem.slot_state = Clean | Dirty | Flushed
type addr = Runtime.Pmem.addr = { obj_id : int; slot : int }

type stats = Runtime.Pmem.stats = {
  mutable stores : int;
  mutable loads : int;
  mutable flushes : int;
  mutable flushed_lines : int;
  mutable redundant_flushes : int;
  mutable fences : int;
  mutable txs : int;
  mutable log_copies : int;
  mutable cycles : int;
  mutable nvm_writes : int;
}

type slot_view = Runtime.Pmem.slot_view = {
  cached : Runtime.Value.t;
  fenced : Runtime.Value.t;
  state : slot_state;
  rollback : Runtime.Value.t option;
}

module Config = Runtime.Config
module Value = Runtime.Value

type obj = {
  id : int;
  persistent : bool;
  cache : Value.t array;
  nvm : Value.t array;
  state : slot_state array;
}

type undo_entry = { u_obj : int; u_slot : int; u_value : Value.t }
type tx = { tx_id : int; mutable undo : undo_entry list }

type t = {
  config : Config.t;
  objects : (int, obj) Hashtbl.t;
  mutable next_id : int;
  stats : stats;
  mutable tx_stack : tx list;
  mutable next_tx : int;
  mutable in_commit : bool;
  mutable pending_drain : (int * int) list;
}

let create ?(config = Config.default) () =
  {
    config;
    objects = Hashtbl.create 8;
    next_id = 0;
    stats =
      {
        stores = 0;
        loads = 0;
        flushes = 0;
        flushed_lines = 0;
        redundant_flushes = 0;
        fences = 0;
        txs = 0;
        log_copies = 0;
        cycles = 0;
        nvm_writes = 0;
      };
    tx_stack = [];
    next_tx = 0;
    in_commit = false;
    pending_drain = [];
  }

let stats t = t.stats
let charge t c = t.stats.cycles <- t.stats.cycles + c
let obj t id = Hashtbl.find t.objects id

let alloc t ~persistent ~size =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.objects id
    {
      id;
      persistent;
      cache = Array.make size Value.Vnull;
      nvm = Array.make size Value.Vnull;
      state = Array.make size Clean;
    };
  id

let line_of t slot = slot / t.config.Config.cacheline_slots

let write t { obj_id; slot } v =
  let o = obj t obj_id in
  if slot < 0 || slot >= Array.length o.cache then
    invalid_arg (Fmt.str "Pmem.write: slot %d out of bounds for obj%d" slot obj_id);
  (match t.tx_stack with
  | tx :: _ when o.persistent ->
    if
      not
        (List.exists
           (fun u -> u.u_obj = obj_id && u.u_slot = slot)
           tx.undo)
    then tx.undo <- { u_obj = obj_id; u_slot = slot; u_value = o.nvm.(slot) } :: tx.undo
  | _ -> ());
  o.cache.(slot) <- v;
  if o.persistent then o.state.(slot) <- Dirty;
  t.stats.stores <- t.stats.stores + 1;
  charge t t.config.Config.cost.Config.store_cost

let flush_range t ~obj_id ~first_slot ~nslots () =
  let o = obj t obj_id in
  if not o.persistent then ()
  else begin
    let size = Array.length o.cache in
    let first_slot = max 0 first_slot in
    let last = min (size - 1) (first_slot + max 1 nslots - 1) in
    let first_line = line_of t first_slot and last_line = line_of t last in
    let any_dirty = ref false in
    for line = first_line to last_line do
      let lo = line * t.config.Config.cacheline_slots in
      let hi = min size (lo + t.config.Config.cacheline_slots) in
      for s = lo to hi - 1 do
        if o.state.(s) = Dirty then begin
          o.state.(s) <- Flushed;
          t.pending_drain <- (obj_id, s) :: t.pending_drain;
          any_dirty := true
        end
      done;
      t.stats.flushed_lines <- t.stats.flushed_lines + 1;
      charge t t.config.Config.cost.Config.flush_cost
    done;
    t.stats.flushes <- t.stats.flushes + 1;
    if (not !any_dirty) && not t.in_commit then
      t.stats.redundant_flushes <- t.stats.redundant_flushes + 1
  end

let fence t () =
  List.iter
    (fun (obj_id, s) ->
      let o = obj t obj_id in
      if o.state.(s) = Flushed then begin
        o.nvm.(s) <- o.cache.(s);
        o.state.(s) <- Clean;
        t.stats.nvm_writes <- t.stats.nvm_writes + 1
      end)
    t.pending_drain;
  t.pending_drain <- [];
  t.stats.fences <- t.stats.fences + 1;
  charge t t.config.Config.cost.Config.fence_cost

let tx_begin t () =
  let tx = { tx_id = t.next_tx; undo = [] } in
  t.next_tx <- t.next_tx + 1;
  t.tx_stack <- tx :: t.tx_stack;
  t.stats.txs <- t.stats.txs + 1;
  charge t t.config.Config.cost.Config.tx_overhead

let tx_add t ~obj_id ~first_slot ~nslots () =
  match t.tx_stack with
  | [] -> invalid_arg "Pmem.tx_add: no open transaction"
  | tx :: _ ->
    let o = obj t obj_id in
    let last = min (Array.length o.cache - 1) (first_slot + max 1 nslots - 1) in
    for s = first_slot to last do
      if not (List.exists (fun u -> u.u_obj = obj_id && u.u_slot = s) tx.undo)
      then
        tx.undo <- { u_obj = obj_id; u_slot = s; u_value = o.nvm.(s) } :: tx.undo
    done;
    t.stats.log_copies <- t.stats.log_copies + 1;
    charge t t.config.Config.cost.Config.log_cost

let tx_end t () =
  match t.tx_stack with
  | [] -> invalid_arg "Pmem.tx_end: no open transaction"
  | tx :: rest ->
    let by_obj = Hashtbl.create 8 in
    List.iter
      (fun u ->
        let old = Option.value ~default:[] (Hashtbl.find_opt by_obj u.u_obj) in
        Hashtbl.replace by_obj u.u_obj (u.u_slot :: old))
      tx.undo;
    t.in_commit <- true;
    Hashtbl.iter
      (fun obj_id slots ->
        let lo = List.fold_left min max_int slots
        and hi = List.fold_left max 0 slots in
        flush_range t ~obj_id ~first_slot:lo ~nslots:(hi - lo + 1) ())
      by_obj;
    t.in_commit <- false;
    fence t ();
    charge t t.config.Config.cost.Config.tx_overhead;
    t.tx_stack <- rest;
    match rest with
    | parent :: _ ->
      List.iter
        (fun u ->
          if
            not
              (List.exists
                 (fun p -> p.u_obj = u.u_obj && p.u_slot = u.u_slot)
                 parent.undo)
          then parent.undo <- u :: parent.undo)
        tx.undo
    | [] -> ()

let rollback_value t { obj_id; slot } =
  List.find_map
    (fun tx ->
      List.find_map
        (fun u ->
          if u.u_obj = obj_id && u.u_slot = slot then Some u.u_value else None)
        tx.undo)
    t.tx_stack

let durable_value t ({ obj_id; slot } as a) =
  match rollback_value t a with
  | Some v -> v
  | None -> (obj t obj_id).nvm.(slot)

let slot_view t ({ obj_id; slot } as a) =
  let o = obj t obj_id in
  {
    cached = o.cache.(slot);
    fenced = o.nvm.(slot);
    state = o.state.(slot);
    rollback = rollback_value t a;
  }
