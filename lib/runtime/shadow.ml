(* The shadow segment (§4.4): mirrors the persistent address space and
   records, per slot, the history of strand accesses — which strand last
   wrote it and which strands have read it since. DeepMC customizes
   ThreadSanitizer with exactly this structure; here it is a hash table
   keyed by concrete slot address, populated only for addresses touched
   inside annotated regions, which is what keeps the tracking cheap.

   Ordering representation: persist barriers in the runtime are global
   synchronization points, so happens-before admits a scalar fast path
   (in the spirit of FastTrack's epochs): every access is stamped with
   the global barrier count at the time it executed, every region with
   the barrier count at which it began. An earlier access (s, f)
   happens-before a later access by a region begun at barrier count b
   iff they are by the same strand or b > f (a barrier intervened). No
   vector clocks are kept: the scalar form is the whole ordering.

   Concurrency: the segment is sharded into lock-striped sub-tables so
   listeners running on different client domains can record accesses
   concurrently. A cell's whole read/write history lives in one shard,
   so the conflict computation for an access happens atomically under
   that shard's lock; the global counters are atomics. *)

type access = {
  strand : int;
  fence_at : int; (* global barrier count when the access executed *)
  loc : Nvmir.Loc.t;
}

(* Is previous access [a] ordered before an access of [strand] whose
   region began at barrier count [begin_fence]? *)
let ordered_before (a : access) ~strand ~begin_fence =
  a.strand = strand || begin_fence > a.fence_at

type cell = {
  mutable last_write : access option;
  mutable reads : access list; (* reads since the last write *)
}

(* Cells are keyed by an int encoding of (obj, slot) so lookups avoid
   polymorphic hashing of tuples. The slot field is 30 bits wide; the
   object id occupies the bits above it, which leaves 32 bits of object
   ids on a 64-bit host. Out-of-range components are rejected instead of
   silently aliasing another object's slots (which would fabricate
   races). *)
let slot_bits = 30
let max_slot = (1 lsl slot_bits) - 1
let max_obj_id = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1

let key ~obj_id ~slot =
  if slot < 0 || slot > max_slot then
    invalid_arg (Fmt.str "Shadow.key: slot %d outside [0, %d]" slot max_slot);
  if obj_id < 0 || obj_id > max_obj_id then
    invalid_arg
      (Fmt.str "Shadow.key: obj_id %d outside [0, %d]" obj_id max_obj_id);
  (obj_id lsl slot_bits) lor slot

type shard = {
  lock : Mutex.t;
  cells : (int, cell) Hashtbl.t;
}

let m_writes =
  Obs.Metrics.counter "shadow.writes" ~desc:"shadow-segment write records"

let m_reads =
  Obs.Metrics.counter "shadow.reads" ~desc:"shadow-segment read records"

let m_contention =
  Obs.Metrics.counter "shadow.lock_contention"
    ~desc:"shard-lock acquisitions that found the lock held"

(* Telemetry-aware shard lock: a failed [try_lock] is exactly one
   contended acquisition. Disabled, this is a plain [Mutex.lock]. *)
let lock_shard (m : Mutex.t) =
  if not (Obs.enabled ()) then Mutex.lock m
  else if Mutex.try_lock m then ()
  else begin
    Obs.Metrics.incr m_contention;
    Mutex.lock m
  end

type t = {
  shards : shard array;
  tracked_writes : int Atomic.t;
  tracked_reads : int Atomic.t;
}

(* A power of two, so a stripe is picked by masking. *)
let shard_count = 16

let create () =
  {
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); cells = Hashtbl.create 64 });
    tracked_writes = Atomic.make 0;
    tracked_reads = Atomic.make 0;
  }

(* Mix the object id into the low bits so one object's slots — and
   different objects — both spread across stripes. *)
let shard_of t key =
  t.shards.((key lxor (key lsr slot_bits)) land (shard_count - 1))

let cell_locked shard key =
  match Hashtbl.find_opt shard.cells key with
  | Some c -> c
  | None ->
    let c = { last_write = None; reads = [] } in
    Hashtbl.replace shard.cells key c;
    c

(* Record a write; returns the conflicting accesses, if any: a WAW race
   with the previous writer and RAW races with readers not ordered
   before this write. [begin_fence] is the barrier count at which the
   writing region began. *)
let record_write t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Waw of access | `Raw of access ] list =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  Atomic.incr t.tracked_writes;
  Obs.Metrics.incr m_writes;
  lock_shard shard.lock;
  let c = cell_locked shard key in
  let conflicts = ref [] in
  (match c.last_write with
  | Some w when not (ordered_before w ~strand:a.strand ~begin_fence) ->
    conflicts := `Waw w :: !conflicts
  | Some _ | None -> ());
  List.iter
    (fun r ->
      if not (ordered_before r ~strand:a.strand ~begin_fence) then
        conflicts := `Raw r :: !conflicts)
    c.reads;
  c.last_write <- Some a;
  c.reads <- [];
  Mutex.unlock shard.lock;
  List.rev !conflicts

(* Record a read; returns a RAW conflict when the read races with the
   previous write (the reader cannot know whether it observes pre- or
   post-persist data). *)
let record_read t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Raw of access ] option =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  Atomic.incr t.tracked_reads;
  Obs.Metrics.incr m_reads;
  lock_shard shard.lock;
  let c = cell_locked shard key in
  c.reads <- a :: c.reads;
  let conflict =
    match c.last_write with
    | Some w when not (ordered_before w ~strand:a.strand ~begin_fence) ->
      Some (`Raw w)
    | Some _ | None -> None
  in
  Mutex.unlock shard.lock;
  conflict

(* Has [record_write] ever been called on this slot? Read-created cells
   have no [last_write], so the check is exact — it replaces the
   separate ever-written table the checker used to keep. *)
let ever_written t ~obj_id ~slot =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  lock_shard shard.lock;
  let r =
    match Hashtbl.find_opt shard.cells key with
    | Some c -> c.last_write <> None
    | None -> false
  in
  Mutex.unlock shard.lock;
  r

let tracked_cells t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = Hashtbl.length s.cells in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards

let pp ppf t =
  Fmt.pf ppf "shadow: %d cells in %d shard(s), %d writes, %d reads tracked"
    (tracked_cells t) shard_count
    (Atomic.get t.tracked_writes)
    (Atomic.get t.tracked_reads)
