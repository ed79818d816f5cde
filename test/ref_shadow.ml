(* Reference shadow segment: the lock-striped, hash-keyed segment the
   dynamic checker used before [Runtime.Shadow] became one direct-mapped
   segment per heap. Kept verbatim apart from its telemetry (the
   [shadow.*] counters, whose registration belongs to the library), so
   the differential in [test_dynamic.ml] can require identical conflict
   lists (in order), [ever_written] and [tracked_cells] on random access
   streams. It shares [Runtime.Shadow.access] so results compare
   directly.

   Cells are keyed by an int encoding of (obj, slot): the slot in the
   low 30 bits, the object id above them; out-of-range components are
   rejected instead of silently aliasing another object's slots. *)

type access = Runtime.Shadow.access = {
  strand : int;
  fence_at : int;
  loc : Nvmir.Loc.t;
}

let ordered_before (a : access) ~strand ~begin_fence =
  a.strand = strand || begin_fence > a.fence_at

type cell = {
  mutable last_write : access option;
  mutable reads : access list; (* reads since the last write *)
}

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

let record_write t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Waw of access | `Raw of access ] list =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  Atomic.incr t.tracked_writes;
  Mutex.lock shard.lock;
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

let record_read t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Raw of access ] option =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  Atomic.incr t.tracked_reads;
  Mutex.lock shard.lock;
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

let ever_written t ~obj_id ~slot =
  let key = key ~obj_id ~slot in
  let shard = shard_of t key in
  Mutex.lock shard.lock;
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
