(** The NVM runtime simulator: a persistent heap with an explicit
    cache-line write-back state machine
    ([Clean -> Dirty -> Flushed -> Clean]), undo-log transactions,
    epoch/strand annotations, a cost model, and listener hooks through
    which the dynamic checker observes execution (§4.4).

    The durable view ({!durable_value}) reflects only fenced data, with
    open transactions rolled back — the prefix image {!Crash_space}
    walks first at every crash point.

    Undo-log membership and rollback are O(1): an object logged into
    gets per-slot log stamps (the serial of the innermost open
    transaction whose log holds the slot) at its first logged slot, so
    a transaction of n stores costs O(n). A heap has one listener, the
    composition of every {!add_listener} call, so an event is one
    indirect call and a store, load, flush or fence without [?loc]
    allocates nothing. *)

type slot_state = Clean | Dirty | Flushed

type addr = { obj_id : int; slot : int }
(** Concrete slot address. *)

(** Hooks invoked on persistent-memory events. Build with
    [{ null_listener with on_write = ... }]. *)
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

val null_listener : listener

type stats = {
  mutable stores : int;
  mutable loads : int;
  mutable flushes : int;
  mutable flushed_lines : int;
  mutable redundant_flushes : int;  (** flushes that found no dirty slot *)
  mutable fences : int;
  mutable txs : int;
  mutable log_copies : int;
  mutable cycles : int;  (** cost-model time *)
  mutable nvm_writes : int;  (** slots actually written back *)
}

type t

val create :
  ?config:Config.t -> ?first_obj_id:int -> ?obj_id_limit:int -> unit -> t
(** [first_obj_id] offsets object-id allocation so the workload
    harness's per-domain client heaps never hand out the same id —
    warnings name objects by id, so ids stay globally unique when one
    checker observes many heaps. The heap's object table starts at
    [first_obj_id].
    [obj_id_limit] is the exclusive end of the heap's id window:
    {!alloc} raises [Invalid_argument] instead of spilling into the
    next client's range, and {!Dynamic.attach_client} uses the window
    to reject overlapping client heaps.
    @raise Invalid_argument if the window is empty or negative. *)

val id_range : t -> int * int option
(** The heap's object-id window [(first, limit)]; [None] = unbounded. *)

val stats : t -> stats
val config : t -> Config.t
val add_listener : t -> listener -> unit
(** Composes [l] before the heap's listener: the newest listener sees
    each event first. *)

val remove_listeners : t -> unit

(** {1 Objects} *)

val alloc :
  t -> ?name:string -> tenv:Nvmir.Ty.env -> persistent:bool -> Nvmir.Ty.t -> int
(** Returns the object id; size in slots comes from the type. *)

val obj_size : t -> int -> int
val is_persistent : t -> int -> bool
val obj_ty : t -> int -> Nvmir.Ty.t
val obj_name : t -> int -> string option
val live_objects : t -> int list
(** Every object's id, ascending. *)

val object_count : t -> int
(** The number of live objects; objects are never freed, so it changes
    only by allocation. *)

(** {1 Memory operations} *)

val write : t -> ?loc:Nvmir.Loc.t -> addr -> Value.t -> unit
(** Marks the slot dirty; inside a transaction, auto-logs its durable
    value on first touch. @raise Invalid_argument out of bounds. *)

val read : t -> ?loc:Nvmir.Loc.t -> addr -> Value.t

val flush_range :
  t -> ?loc:Nvmir.Loc.t -> obj_id:int -> first_slot:int -> nslots:int ->
  unit -> unit
(** Line-granular clwb: dirty slots of every touched line become
    Flushed. Flushing clean data still costs a write-back command. *)

val fence : t -> ?loc:Nvmir.Loc.t -> unit -> unit
(** Drain: every Flushed slot becomes durable. *)

val persist_range :
  t -> ?loc:Nvmir.Loc.t -> obj_id:int -> first_slot:int -> nslots:int ->
  unit -> unit

(** {1 Transactions} *)

val tx_begin : t -> ?loc:Nvmir.Loc.t -> unit -> unit

val tx_add :
  t -> ?loc:Nvmir.Loc.t -> obj_id:int -> first_slot:int -> nslots:int ->
  unit -> unit
(** Explicit undo-log registration (TX_ADD).
    @raise Invalid_argument outside a transaction. *)

val tx_end : t -> ?loc:Nvmir.Loc.t -> unit -> unit
(** Commit: flush + fence everything the transaction touched, then fold
    the log into the parent transaction (if nested).
    @raise Invalid_argument outside a transaction. *)

val in_tx : t -> bool

(** {1 Annotations} — visible to listeners, no memory effect *)

val epoch_begin : t -> ?loc:Nvmir.Loc.t -> unit -> unit
val epoch_end : t -> ?loc:Nvmir.Loc.t -> unit -> unit
val strand_begin : t -> ?loc:Nvmir.Loc.t -> int -> unit
val strand_end : t -> ?loc:Nvmir.Loc.t -> int -> unit

(** {1 Crash semantics} *)

val durable_value : t -> addr -> Value.t
(** The value a slot holds after a crash right now: fenced data with
    open transactions rolled back. *)

val cached_value : t -> addr -> Value.t
val slot_state : t -> addr -> slot_state

(** Everything a crash image depends on in one slot. *)
type slot_view = {
  cached : Value.t;
  fenced : Value.t;  (** the durable value before any rollback *)
  state : slot_state;
  rollback : Value.t option;
      (** the innermost open transaction's undo value for the slot *)
}

val slot_view : t -> addr -> slot_view

(** {2 Change journal}

    With journaling on, a heap lists every slot whose {!slot_view} may
    have changed: stores, flushes, drains, evictions and undo-log
    updates. {!Crash_space} records an execution this way. *)

val start_journal : t -> unit

val take_journal : t -> addr list
(** The slots touched since the last call, newest first, possibly
    repeated; empties the journal. *)

val durable_snapshot : t -> (int, Value.t array) Hashtbl.t
(** Durable view of every persistent object. *)

val volatile_slot_count : t -> int
(** Slots whose cached value differs from the durable view; zero means a
    crash loses nothing. *)

(** {1 Media corruption} — the recovery tier's crash model.

    A crash image says which in-flight lines reached NVM; the media
    model adds that any line {e in flight} at the crash may additionally
    have been torn mid-write-back. The model itself lives beside the
    crash sweep ({!Crash_space.sweep}), the one module that knows
    a crash image; this module keeps its vocabulary, the post-crash heap
    it builds ({!restore}), the corrupt flags, and the CRC primitives
    that implement the verified-storage CRC-validates-data axiom
    recovery code uses to detect the damage. *)

type corruption_kind =
  | Torn_line  (** each slot independently landed old or new *)
  | Bit_flip  (** one slot's value perturbed *)
  | Stale_line
      (** the line silently reverted to its pre-crash durable content —
          the stale-CRC case when the line holds a checksum *)

val corruption_kind_name : corruption_kind -> string

type corruption = {
  c_addr : addr;
  c_kind : corruption_kind;
  c_was : Value.t;  (** the value the image held before corruption *)
  c_now : Value.t;
}

val restore :
  config:Config.t ->
  (int * Nvmir.Ty.t * string option * Value.t array) list ->
  corrupt:addr list ->
  t
(** [restore ~config objects ~corrupt] is a post-crash heap holding
    exactly the persistent objects [(id, ty, name, values)]: every slot
    durable and [Clean] with its value, the [corrupt] slots flagged.
    The value arrays become the objects' cached views, so the caller
    must not reuse them. *)

val is_corrupt : t -> addr -> bool

val corrupt_slot_count : t -> int
(** Corrupt-flagged slots still present (stores heal their slot). *)

val crc_of_range : t -> obj_id:int -> first_slot:int -> nslots:int -> int
(** Deterministic checksum over the cached values of a slot range. A
    guarded read: it does not notify listeners or trip corrupt-read
    accounting. *)

val range_corrupt : t -> obj_id:int -> first_slot:int -> nslots:int -> bool

val crc_check_range :
  t -> obj_id:int -> first_slot:int -> nslots:int -> crc:Value.t -> bool
(** The CRC-validates-data axiom: true iff no covered slot is
    corrupt-flagged {e and} [crc] equals the range's checksum — so a
    guarded read never accepts corrupted data, even on a collision. *)

val pp_stats : stats Fmt.t
