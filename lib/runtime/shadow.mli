(** The shadow segment (§4.4): mirrors one heap's persistent address
    space, recording per-slot access history for happens-before WAW/RAW
    race detection. Ordering uses a scalar barrier-count fast path
    (persist barriers in the runtime are global synchronization points);
    see DESIGN.md.

    A segment belongs to one heap and is direct-mapped: each object's
    history lives in per-slot arrays, sized from the object's size and
    allocated in pages on first access. It takes no locks, because one
    heap is driven from one domain ({!Dynamic.attach} and
    {!Dynamic.attach_client} document that); a checker observing several
    heaps keeps one segment per heap. *)

type access = {
  strand : int;
  fence_at : int;  (** global barrier count when the access executed, >= 0 *)
  loc : Nvmir.Loc.t;
}

val ordered_before : access -> strand:int -> begin_fence:int -> bool
(** Is the previous access ordered before an access by [strand] whose
    region began at barrier count [begin_fence]? *)

type t

val create : obj_size:(int -> int) -> t
(** An empty segment for a heap whose object [id] has [obj_size id]
    slots ({!Pmem.obj_size}). *)

val record_write :
  t ->
  obj_id:int ->
  slot:int ->
  begin_fence:int ->
  access ->
  [ `Waw of access | `Raw of access ] list
(** Record a write; returns the races it completes: WAW with the
    previous writer first, then RAW with each unordered reader since
    that write, newest read first.
    @raise Invalid_argument when [slot] is outside the object. *)

val record_read :
  t ->
  obj_id:int ->
  slot:int ->
  begin_fence:int ->
  access ->
  [ `Raw of access ] option
(** @raise Invalid_argument when [slot] is outside the object. *)

val ever_written : t -> obj_id:int -> slot:int -> bool
(** Has {!record_write} ever been called on this slot? *)

val tracked_cells : t -> int
(** Slots {!record_write} or {!record_read} has touched. *)
