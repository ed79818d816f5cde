(* The NVM runtime simulator: a persistent heap with an explicit
   cache-line write-back state machine, undo-log transactions, epoch and
   strand annotations, a cycle-accurate-ish cost model, and listener
   hooks through which the dynamic checker observes execution (§4.4).

   Persistence state machine per slot:

     Clean --write--> Dirty --flush--> Flushed --fence--> Clean
                        ^                |
                        +---- write -----+   (re-dirtied before drain)

   The durable view ([durable_value]) reflects only fenced data, plus
   undo-log rollback for transactions that have not committed — the
   prefix image [Crash_space] walks first at every crash point. *)

type slot_state = Clean | Dirty | Flushed

type obj = {
  id : int;
  ty : Nvmir.Ty.t;
  persistent : bool;
  name : string option;
  cache : Value.t array; (* volatile (cached) view *)
  nvm : Value.t array; (* durable view *)
  state : slot_state array;
  corrupt : bool array;
      (* media-corruption flags: set only on heaps reconstituted from a
         corrupted crash image ([restore]); a store heals its slot *)
}

(* Concrete slot address. *)
type addr = { obj_id : int; slot : int }

type listener = {
  on_alloc : obj_id:int -> persistent:bool -> size:int -> unit;
  on_write : addr -> Nvmir.Loc.t -> unit;
  on_read : addr -> Nvmir.Loc.t -> unit;
  on_flush :
    obj_id:int -> first_slot:int -> nslots:int -> dirty:bool ->
    Nvmir.Loc.t -> unit;
  on_fence : Nvmir.Loc.t -> unit;
  on_tx_begin : Nvmir.Loc.t -> unit;
  on_tx_end : Nvmir.Loc.t -> unit;
  on_epoch_begin : Nvmir.Loc.t -> unit;
  on_epoch_end : Nvmir.Loc.t -> unit;
  on_strand_begin : int -> Nvmir.Loc.t -> unit;
  on_strand_end : int -> Nvmir.Loc.t -> unit;
}

let null_listener =
  {
    on_alloc = (fun ~obj_id:_ ~persistent:_ ~size:_ -> ());
    on_write = (fun _ _ -> ());
    on_read = (fun _ _ -> ());
    on_flush = (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ _ -> ());
    on_fence = (fun _ -> ());
    on_tx_begin = (fun _ -> ());
    on_tx_end = (fun _ -> ());
    on_epoch_begin = (fun _ -> ());
    on_epoch_end = (fun _ -> ());
    on_strand_begin = (fun _ _ -> ());
    on_strand_end = (fun _ _ -> ());
  }

type stats = {
  mutable stores : int;
  mutable loads : int;
  mutable flushes : int;
  mutable flushed_lines : int;
  mutable redundant_flushes : int; (* flushes of fully-clean ranges *)
  mutable fences : int;
  mutable txs : int;
  mutable log_copies : int;
  mutable cycles : int; (* cost-model time *)
  mutable nvm_writes : int; (* slots actually written back *)
}

let fresh_stats () =
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
  }

type undo_entry = { u_obj : int; u_slot : int; u_value : Value.t }
type tx = { tx_id : int; mutable undo : undo_entry list }

type t = {
  config : Config.t;
  objects : (int, obj) Hashtbl.t;
  first_id : int;
  id_limit : int option; (* exclusive upper bound on object ids, if any *)
  mutable next_id : int;
  mutable listeners : listener list;
  stats : stats;
  mutable tx_stack : tx list;
  mutable next_tx : int;
  mutable rng : int; (* deterministic LCG state for eviction modeling *)
  mutable in_commit : bool;
      (* commit-internal write-backs are framework machinery, not program
         flushes; listeners are not notified of them *)
  mutable pending_drain : (int * int) list;
      (* (obj, slot) pairs in Flushed state, drained at the next fence;
         keeps fences O(outstanding flushes) instead of O(heap) *)
  mutable journaling : bool;
  mutable journal : addr list;
      (* with [journaling] on, every slot whose cached, fenced, line or
         rollback state may have changed since the last [take_journal] *)
}

let create ?(config = Config.default) ?(first_obj_id = 0) ?obj_id_limit () =
  if first_obj_id < 0 then invalid_arg "Pmem.create: negative first_obj_id";
  (match obj_id_limit with
  | Some lim when lim <= first_obj_id ->
    invalid_arg
      (Fmt.str "Pmem.create: obj_id_limit %d <= first_obj_id %d" lim
         first_obj_id)
  | _ -> ());
  {
    config;
    objects = Hashtbl.create 64;
    first_id = first_obj_id;
    id_limit = obj_id_limit;
    next_id = first_obj_id;
    listeners = [];
    stats = fresh_stats ();
    tx_stack = [];
    next_tx = 0;
    rng = config.Config.eviction_seed;
    in_commit = false;
    pending_drain = [];
    journaling = false;
    journal = [];
  }

let stats t = t.stats
let config t = t.config
let add_listener t l = t.listeners <- l :: t.listeners
let remove_listeners t = t.listeners <- []
let notify t f = List.iter f t.listeners
let charge t c = t.stats.cycles <- t.stats.cycles + c

let touch t obj_id slot =
  if t.journaling then t.journal <- { obj_id; slot } :: t.journal

let start_journal t =
  t.journaling <- true;
  t.journal <- []

let take_journal t =
  let j = t.journal in
  t.journal <- [];
  j

let obj t id =
  match Hashtbl.find_opt t.objects id with
  | Some o -> o
  | None -> invalid_arg (Fmt.str "Pmem: unknown object %d" id)

let obj_size t id = Array.length (obj t id).cache
let is_persistent t id = (obj t id).persistent
let obj_ty t id = (obj t id).ty
let obj_name t id = (obj t id).name
let object_count t = Hashtbl.length t.objects

let live_objects t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.objects [] |> List.sort Int.compare

let id_range t = (t.first_id, t.id_limit)

let alloc t ?name ~tenv ~persistent ty =
  let size = max 1 (Nvmir.Ty.size_slots tenv ty) in
  let id = t.next_id in
  (match t.id_limit with
  | Some lim when id >= lim ->
    invalid_arg
      (Fmt.str
         "Pmem.alloc: object-id window [%d, %d) exhausted; widen the \
          client's id range"
         t.first_id lim)
  | _ -> ());
  t.next_id <- id + 1;
  let o =
    {
      id;
      ty;
      persistent;
      name;
      cache = Array.make size Value.Vnull;
      nvm = Array.make size Value.Vnull;
      state = Array.make size Clean;
      corrupt = Array.make size false;
    }
  in
  Hashtbl.replace t.objects id o;
  notify t (fun l -> l.on_alloc ~obj_id:id ~persistent ~size);
  id

(* Deterministic LCG used only for optional eviction modeling. *)
let next_rand t =
  t.rng <- ((t.rng * 1103515245) + 12345) land 0x3FFFFFFF;
  t.rng

let line_of t slot = slot / t.config.Config.cacheline_slots

let evict_line t (o : obj) line =
  let lo = line * t.config.Config.cacheline_slots in
  let hi = min (Array.length o.cache) (lo + t.config.Config.cacheline_slots) in
  for s = lo to hi - 1 do
    if o.state.(s) <> Clean then begin
      o.nvm.(s) <- o.cache.(s);
      o.state.(s) <- Clean;
      touch t o.id s;
      t.stats.nvm_writes <- t.stats.nvm_writes + 1
    end
  done

(* Spontaneous eviction: with eviction modeling on, roughly one write in
   sixteen evicts a pseudo-random dirty line of the written object —
   the "unpredictable cache evictions" of §2.1. *)
let maybe_evict t (o : obj) =
  if t.config.Config.track_eviction && next_rand t land 0xF = 0 then begin
    let nlines = 1 + ((Array.length o.cache - 1) / t.config.Config.cacheline_slots) in
    evict_line t o (next_rand t mod nlines)
  end

let write t ?(loc = Nvmir.Loc.none) { obj_id; slot } v =
  let o = obj t obj_id in
  if slot < 0 || slot >= Array.length o.cache then
    invalid_arg (Fmt.str "Pmem.write: slot %d out of bounds for obj%d" slot obj_id);
  (* undo-log: first write to a slot inside a transaction snapshots the
     durable value, so a crash before commit rolls back *)
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
  o.corrupt.(slot) <- false;
  if o.persistent then begin
    o.state.(slot) <- Dirty;
    touch t obj_id slot
  end;
  t.stats.stores <- t.stats.stores + 1;
  charge t t.config.Config.cost.Config.store_cost;
  if o.persistent then begin
    notify t (fun l -> l.on_write { obj_id; slot } loc);
    maybe_evict t o
  end

let read t ?(loc = Nvmir.Loc.none) { obj_id; slot } =
  let o = obj t obj_id in
  if slot < 0 || slot >= Array.length o.cache then
    invalid_arg (Fmt.str "Pmem.read: slot %d out of bounds for obj%d" slot obj_id);
  t.stats.loads <- t.stats.loads + 1;
  charge t t.config.Config.cost.Config.load_cost;
  if o.persistent then notify t (fun l -> l.on_read { obj_id; slot } loc);
  o.cache.(slot)

(* Flush a slot range (line-granular): Dirty slots of every touched
   cache line become Flushed. Flushing clean data still costs a
   write-back command — that is precisely how the performance bugs of
   Table 5 hurt. *)
let flush_range t ?(loc = Nvmir.Loc.none) ~obj_id ~first_slot ~nslots () =
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
          touch t obj_id s;
          t.pending_drain <- (obj_id, s) :: t.pending_drain;
          any_dirty := true
        end
      done;
      t.stats.flushed_lines <- t.stats.flushed_lines + 1;
      charge t t.config.Config.cost.Config.flush_cost
    done;
    t.stats.flushes <- t.stats.flushes + 1;
    if (not !any_dirty) && not t.in_commit then
      t.stats.redundant_flushes <- t.stats.redundant_flushes + 1;
    if not t.in_commit then
      notify t (fun l ->
          l.on_flush ~obj_id ~first_slot
            ~nslots:(last - first_slot + 1)
            ~dirty:!any_dirty loc)
  end

let flush_obj t ?loc obj_id =
  flush_range t ?loc ~obj_id ~first_slot:0 ~nslots:(obj_size t obj_id) ()

let fence t ?(loc = Nvmir.Loc.none) () =
  List.iter
    (fun (obj_id, s) ->
      let o = obj t obj_id in
      (* a slot may have been re-dirtied since the flush; only drain
         slots still in Flushed state *)
      if o.state.(s) = Flushed then begin
        o.nvm.(s) <- o.cache.(s);
        o.state.(s) <- Clean;
        touch t obj_id s;
        t.stats.nvm_writes <- t.stats.nvm_writes + 1
      end)
    t.pending_drain;
  t.pending_drain <- [];
  t.stats.fences <- t.stats.fences + 1;
  charge t t.config.Config.cost.Config.fence_cost;
  notify t (fun l -> l.on_fence loc)

let persist_range t ?loc ~obj_id ~first_slot ~nslots () =
  flush_range t ?loc ~obj_id ~first_slot ~nslots ();
  fence t ?loc ()

let persist_obj t ?loc obj_id =
  flush_obj t ?loc obj_id;
  fence t ?loc ()

(* Transactions: undo logging with durable commit. [tx_add] explicitly
   snapshots an object range (the TX_ADD of PMDK); writes inside a
   transaction are also auto-logged on first touch so rollback is always
   possible. Commit flushes everything the transaction touched, fences,
   then truncates the log. *)
let tx_begin t ?(loc = Nvmir.Loc.none) () =
  let tx = { tx_id = t.next_tx; undo = [] } in
  t.next_tx <- t.next_tx + 1;
  t.tx_stack <- tx :: t.tx_stack;
  t.stats.txs <- t.stats.txs + 1;
  charge t t.config.Config.cost.Config.tx_overhead;
  notify t (fun l -> l.on_tx_begin loc)

let tx_add t ?(loc = Nvmir.Loc.none) ~obj_id ~first_slot ~nslots () =
  ignore loc;
  match t.tx_stack with
  | [] -> invalid_arg "Pmem.tx_add: no open transaction"
  | tx :: _ ->
    let o = obj t obj_id in
    let last = min (Array.length o.cache - 1) (first_slot + max 1 nslots - 1) in
    for s = first_slot to last do
      if not (List.exists (fun u -> u.u_obj = obj_id && u.u_slot = s) tx.undo)
      then begin
        tx.undo <- { u_obj = obj_id; u_slot = s; u_value = o.nvm.(s) } :: tx.undo;
        touch t obj_id s
      end
    done;
    t.stats.log_copies <- t.stats.log_copies + 1;
    charge t t.config.Config.cost.Config.log_cost

let tx_end t ?(loc = Nvmir.Loc.none) () =
  match t.tx_stack with
  | [] -> invalid_arg "Pmem.tx_end: no open transaction"
  | tx :: rest ->
    (* commit: make every logged slot durable *)
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
        flush_range t ~loc ~obj_id ~first_slot:lo ~nslots:(hi - lo + 1) ())
      by_obj;
    t.in_commit <- false;
    fence t ~loc ();
    charge t t.config.Config.cost.Config.tx_overhead;
    t.tx_stack <- rest;
    (* closing the log changes which rollback each logged slot takes *)
    if t.journaling then List.iter (fun u -> touch t u.u_obj u.u_slot) tx.undo;
    (* a nested transaction's log folds into its parent so an aborted
       outer transaction can still roll everything back *)
    (match rest with
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
    | [] -> ());
    notify t (fun l -> l.on_tx_end loc)

let in_tx t = t.tx_stack <> []

(* Annotations: epoch and strand markers are visible to listeners but do
   not change memory state by themselves. *)
let epoch_begin t ?(loc = Nvmir.Loc.none) () =
  notify t (fun l -> l.on_epoch_begin loc)

let epoch_end t ?(loc = Nvmir.Loc.none) () =
  notify t (fun l -> l.on_epoch_end loc)

let strand_begin t ?(loc = Nvmir.Loc.none) n =
  notify t (fun l -> l.on_strand_begin n loc)

let strand_end t ?(loc = Nvmir.Loc.none) n =
  notify t (fun l -> l.on_strand_end n loc)

(* ------------------------------------------------------------------ *)
(* Crash semantics *)

(* The undo value recovery restores a slot to: the innermost open
   transaction's log entry for it, if any. *)
let rollback_value t { obj_id; slot } =
  List.find_map
    (fun tx ->
      List.find_map
        (fun u ->
          if u.u_obj = obj_id && u.u_slot = slot then Some u.u_value else None)
        tx.undo)
    t.tx_stack

(* The value a slot would hold after a crash right now: the durable
   (fenced) value, with open transactions rolled back via their undo
   logs. *)
let durable_value t ({ obj_id; slot } as a) =
  match rollback_value t a with
  | Some v -> v
  | None -> (obj t obj_id).nvm.(slot)

let cached_value t { obj_id; slot } = (obj t obj_id).cache.(slot)

let slot_state t { obj_id; slot } = (obj t obj_id).state.(slot)

type slot_view = {
  cached : Value.t;
  fenced : Value.t;
  state : slot_state;
  rollback : Value.t option;
}

let slot_view t ({ obj_id; slot } as a) =
  let o = obj t obj_id in
  {
    cached = o.cache.(slot);
    fenced = o.nvm.(slot);
    state = o.state.(slot);
    rollback = rollback_value t a;
  }

(* A heap of persistent objects in the given per-slot states. Rollback
   values become the undo log of one open transaction: materialization
   and durable reads resolve each slot to its innermost log entry, so
   one merged log is indistinguishable from the nest it came from. *)
let crashed ?(config = Config.default) objects =
  let t = create ~config () in
  let undo = ref [] in
  List.iter
    (fun (id, ty, name, views) ->
      let size = Array.length views in
      Hashtbl.replace t.objects id
        {
          id;
          ty;
          persistent = true;
          name;
          cache = Array.map (fun v -> v.cached) views;
          nvm = Array.map (fun v -> v.fenced) views;
          state = Array.map (fun v -> v.state) views;
          corrupt = Array.make size false;
        };
      Array.iteri
        (fun slot v ->
          Option.iter
            (fun u_value ->
              undo := { u_obj = id; u_slot = slot; u_value } :: !undo)
            v.rollback)
        views;
      if id >= t.next_id then t.next_id <- id + 1)
    objects;
  if !undo <> [] then begin
    t.tx_stack <- [ { tx_id = 0; undo = !undo } ];
    t.next_tx <- 1
  end;
  t

(* Snapshot of the whole durable state: obj id -> values. *)
let durable_snapshot t =
  let snap = Hashtbl.create (Hashtbl.length t.objects) in
  Hashtbl.iter
    (fun id o ->
      if o.persistent then
        Hashtbl.replace snap id
          (Array.init (Array.length o.nvm) (fun slot ->
               durable_value t { obj_id = id; slot })))
    t.objects;
  snap

(* ------------------------------------------------------------------ *)
(* Crash-image enumeration support ([Crash_space]): which cache lines
   are still in flight, and what durable image results when an arbitrary
   subset of them reaches NVM. Lines are (obj_id, line index) pairs;
   line width comes from the configuration. *)

let lines_matching t pred =
  let w = t.config.Config.cacheline_slots in
  List.concat_map
    (fun id ->
      let o = obj t id in
      let size = Array.length o.state in
      let rec any s hi = s < hi && (pred o.state.(s) || any (s + 1) hi) in
      let rec from line =
        let lo = line * w in
        if lo >= size then []
        else if any lo (min size (lo + w)) then (id, line) :: from (line + 1)
        else from (line + 1)
      in
      if o.persistent then from 0 else [])
    (live_objects t)

let dirty_lines t = lines_matching t (fun st -> st = Dirty)
let unfenced_lines t = lines_matching t (fun st -> st = Flushed)
let inflight_lines t = lines_matching t (fun st -> st <> Clean)

(* The durable image if exactly the [persist] lines were written back
   before the crash: chosen lines carry their cached slots, everything
   else keeps its fenced value, and recovery rolls open transactions
   back via their undo logs (outermost first, so the innermost snapshot
   wins — the same resolution order as [durable_value]). The empty
   subset reproduces [durable_snapshot] exactly. *)
let materialize t ~persist =
  let snap = Hashtbl.create (Hashtbl.length t.objects) in
  Hashtbl.iter
    (fun id o ->
      if o.persistent then begin
        let arr = Array.copy o.nvm in
        List.iter
          (fun (obj_id, line) ->
            if obj_id = id then begin
              let lo = line * t.config.Config.cacheline_slots in
              let hi =
                min (Array.length o.cache) (lo + t.config.Config.cacheline_slots)
              in
              for s = lo to hi - 1 do
                arr.(s) <- o.cache.(s)
              done
            end)
          persist;
        List.iter
          (fun tx ->
            List.iter
              (fun u -> if u.u_obj = id then arr.(u.u_slot) <- u.u_value)
              tx.undo)
          (List.rev t.tx_stack);
        Hashtbl.replace snap id arr
      end)
    t.objects;
  snap

(* How many slots are not yet durable (differ between cache and the
   durable view)? Zero means a crash right now loses nothing. *)
let volatile_slot_count t =
  Hashtbl.fold
    (fun id o acc ->
      if not o.persistent then acc
      else begin
        let n = ref acc in
        Array.iteri
          (fun slot v ->
            if not (Value.equal v (durable_value t { obj_id = id; slot })) then
              incr n)
          o.cache;
        !n
      end)
    t.objects 0

(* ------------------------------------------------------------------ *)
(* Media corruption (recovery-tier model).

   A crash image enumerated by [Crash_space] says which in-flight lines
   reached NVM, but media may additionally tear or flip the bytes of any
   line that was in flight: the device was mid-write-back when power
   failed. [corrupt_image] applies that adversarial model to a
   materialized image, deterministically from a seed; [restore] then
   reconstitutes a fresh heap from the (possibly corrupted) image with
   per-slot corrupt flags set, so recovery code runs against exactly the
   state a real restart would see. CRC primitives implement the
   verified-storage axiom: a matching CRC over uncorrupted slots proves
   the data is the data that was written. *)

type corruption_kind =
  | Torn_line  (** each slot independently landed old or new *)
  | Bit_flip  (** one slot's value perturbed *)
  | Stale_line
      (** the whole line silently reverted to its pre-crash durable
          content — the stale-CRC case when the line holds a checksum *)

let corruption_kind_name = function
  | Torn_line -> "torn-line"
  | Bit_flip -> "bit-flip"
  | Stale_line -> "stale-line"

type corruption = {
  c_addr : addr;
  c_kind : corruption_kind;
  c_was : Value.t; (* the value the image held before corruption *)
  c_now : Value.t;
}

let pp_corruption ppf c =
  Fmt.pf ppf "%s obj%d.%d: %a -> %a"
    (corruption_kind_name c.c_kind)
    c.c_addr.obj_id c.c_addr.slot Value.pp c.c_was Value.pp c.c_now

(* One LCG bit-stream per image, fully determined by the seed. *)
let corrupt_image t ~seed image =
  let rng = ref ((seed lxor 0x2545F49) land 0x3FFFFFFF) in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let flip_value r v =
    match (v : Value.t) with
    | Value.Vint n -> Value.Vint (n lxor (1 lsl (r mod 30)))
    | Value.Vbool b -> Value.Vbool (not b)
    | Value.Vref _ -> Value.Vnull (* a torn pointer reads as garbage *)
    | Value.Vnull -> Value.Vint (1 lsl (r mod 30))
  in
  List.concat_map
    (fun (obj_id, line) ->
      match Hashtbl.find_opt image obj_id with
      | None -> []
      | Some arr ->
        let o = obj t obj_id in
        let lo = line * t.config.Config.cacheline_slots in
        let hi = min (Array.length arr) (lo + t.config.Config.cacheline_slots) in
        let kind =
          match next () mod 3 with
          | 0 -> Torn_line
          | 1 -> Bit_flip
          | _ -> Stale_line
        in
        let corrupt_slot s now =
          let was = arr.(s) in
          if Value.equal was now then None
          else begin
            arr.(s) <- now;
            Some { c_addr = { obj_id; slot = s }; c_kind = kind;
                   c_was = was; c_now = now }
          end
        in
        let slots = List.init (hi - lo) (fun d -> lo + d) in
        (match kind with
        | Torn_line ->
          List.filter_map
            (fun s ->
              let v = if next () land 1 = 0 then o.nvm.(s) else o.cache.(s) in
              corrupt_slot s v)
            slots
        | Bit_flip ->
          let s = lo + (next () mod max 1 (hi - lo)) in
          Option.to_list (corrupt_slot s (flip_value (next ()) arr.(s)))
        | Stale_line -> List.filter_map (fun s -> corrupt_slot s o.nvm.(s)) slots))
    (inflight_lines t)

(* Reconstitute a post-crash heap from a materialized (and possibly
   corrupted) image: values are durable and clean, corrupt flags mark
   the slots [corrupt_image] changed. [from] supplies object metadata
   (types, names); only the image's objects — the persistent ones — are
   restored, so recovery allocates its volatile state afresh. *)
let restore ?config ~from ~image ~corrupt () =
  let config = match config with Some c -> c | None -> from.config in
  let t = create ~config () in
  Hashtbl.iter
    (fun id arr ->
      let o = obj from id in
      let size = Array.length arr in
      Hashtbl.replace t.objects id
        {
          id;
          ty = o.ty;
          persistent = true;
          name = o.name;
          cache = Array.copy arr;
          nvm = Array.copy arr;
          state = Array.make size Clean;
          corrupt = Array.make size false;
        };
      if id >= t.next_id then t.next_id <- id + 1)
    image;
  List.iter
    (fun { obj_id; slot } ->
      match Hashtbl.find_opt t.objects obj_id with
      | Some o when slot >= 0 && slot < Array.length o.corrupt ->
        o.corrupt.(slot) <- true
      | _ -> ())
    corrupt;
  t

let is_corrupt t { obj_id; slot } =
  let o = obj t obj_id in
  slot >= 0 && slot < Array.length o.corrupt && o.corrupt.(slot)

let corrupt_slot_count t =
  Hashtbl.fold
    (fun _ o acc ->
      acc + Array.fold_left (fun n c -> if c then n + 1 else n) 0 o.corrupt)
    t.objects 0

(* ------------------------------------------------------------------ *)
(* CRC primitives. The checksum is a deterministic FNV-style fold over
   the cached values of a slot range. [crc_check_range] implements the
   CRC-validates-data axiom exactly: it refuses (returns false) whenever
   any covered slot is corrupt-flagged — even on a hash collision — so a
   guarded read can never accept corrupted data as valid. *)

let hash_value acc v =
  let mix acc k = ((acc lxor (k land 0x3FFFFFFF)) * 16777619) land 0x3FFFFFFF in
  match (v : Value.t) with
  | Value.Vnull -> mix acc 3
  | Value.Vbool b -> mix (mix acc 5) (if b then 1 else 0)
  | Value.Vint n -> mix (mix acc 7) n
  | Value.Vref { obj; off } -> mix (mix (mix acc 11) obj) off

let clamp_range (o : obj) first_slot nslots =
  let size = Array.length o.cache in
  let first = max 0 first_slot in
  let last = min (size - 1) (first + max 1 nslots - 1) in
  (first, last)

let crc_of_range t ~obj_id ~first_slot ~nslots =
  let o = obj t obj_id in
  let first, last = clamp_range o first_slot nslots in
  let acc = ref 0x01C9DC5 in
  for s = first to last do
    acc := hash_value !acc o.cache.(s)
  done;
  !acc

let range_corrupt t ~obj_id ~first_slot ~nslots =
  let o = obj t obj_id in
  let first, last = clamp_range o first_slot nslots in
  let rec go s = s <= last && (o.corrupt.(s) || go (s + 1)) in
  go first

let crc_check_range t ~obj_id ~first_slot ~nslots ~crc =
  (not (range_corrupt t ~obj_id ~first_slot ~nslots))
  &&
  match (crc : Value.t) with
  | Value.Vint n -> n = crc_of_range t ~obj_id ~first_slot ~nslots
  | _ -> false

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "stores=%d loads=%d flushes=%d (lines=%d, redundant=%d) fences=%d txs=%d \
     logs=%d nvm_writes=%d cycles=%d"
    s.stores s.loads s.flushes s.flushed_lines s.redundant_flushes s.fences
    s.txs s.log_copies s.nvm_writes s.cycles
