(** The shadow segment (§4.4): mirrors the persistent address space,
    recording per-slot access history for happens-before WAW/RAW race
    detection. Ordering uses a scalar barrier-count fast path (persist
    barriers in the runtime are global synchronization points); see
    DESIGN.md.

    The segment is lock-striped: cells are sharded by slot key, each
    shard guarded by its own mutex, so listeners on concurrent client
    domains can record accesses without racing on checker state. *)

type access = {
  strand : int;
  fence_at : int;  (** global barrier count when the access executed *)
  loc : Nvmir.Loc.t;
}

val ordered_before : access -> strand:int -> begin_fence:int -> bool
(** Is the previous access ordered before an access by [strand] whose
    region began at barrier count [begin_fence]? *)

val key : obj_id:int -> slot:int -> int
(** Int encoding of a slot address (avoids tuple hashing): the slot in
    the low {!slot_bits} bits, the object id above them.
    @raise Invalid_argument when either component is out of range —
    silent truncation would alias another object and fabricate races. *)

val slot_bits : int
val max_slot : int
val max_obj_id : int

type t

val create : unit -> t
(** A segment of 16 lock stripes. *)

val record_write :
  t ->
  obj_id:int ->
  slot:int ->
  begin_fence:int ->
  access ->
  [ `Waw of access | `Raw of access ] list
(** Record a write; returns the races it completes (WAW with the
    previous writer, RAW with unordered readers). The conflict check and
    history update are atomic with respect to the cell's shard. *)

val record_read :
  t ->
  obj_id:int ->
  slot:int ->
  begin_fence:int ->
  access ->
  [ `Raw of access ] option

val ever_written : t -> obj_id:int -> slot:int -> bool
(** Has {!record_write} ever been called on this slot? *)

val tracked_cells : t -> int
val pp : t Fmt.t
