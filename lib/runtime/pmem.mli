(** The NVM runtime simulator: a persistent heap with an explicit
    cache-line write-back state machine
    ([Clean -> Dirty -> Flushed -> Clean]), undo-log transactions,
    epoch/strand annotations, a cost model, and listener hooks through
    which the dynamic checker observes execution (§4.4).

    The durable view ({!durable_value}) reflects only fenced data, with
    open transactions rolled back — the prefix image {!Crash_space}
    walks first at every crash point. *)

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
(** [first_obj_id] offsets object-id allocation so heaps created for
    concurrent clients never hand out the same id — shadow-segment keys
    stay globally unique when one checker observes many heaps.
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
val remove_listeners : t -> unit

(** {1 Objects} *)

val alloc :
  t -> ?name:string -> tenv:Nvmir.Ty.env -> persistent:bool -> Nvmir.Ty.t -> int
(** Returns the object id; size in slots comes from the type. *)

val obj_size : t -> int -> int
val is_persistent : t -> int -> bool
val obj_ty : t -> int -> Nvmir.Ty.t
val obj_name : t -> int -> string option
val object_count : t -> int
val live_objects : t -> int list

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

val flush_obj : t -> ?loc:Nvmir.Loc.t -> int -> unit

val fence : t -> ?loc:Nvmir.Loc.t -> unit -> unit
(** Drain: every Flushed slot becomes durable. *)

val persist_range :
  t -> ?loc:Nvmir.Loc.t -> obj_id:int -> first_slot:int -> nslots:int ->
  unit -> unit

val persist_obj : t -> ?loc:Nvmir.Loc.t -> int -> unit

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

val crashed :
  ?config:Config.t ->
  (int * Nvmir.Ty.t * string option * slot_view array) list ->
  t
(** [crashed objs] is a heap holding exactly the persistent objects
    [(id, ty, name, slots)] in the given slot states. Its crash
    semantics ({!durable_value}, {!inflight_lines}, {!materialize},
    {!corrupt_image}) match those of any heap whose persistent slots
    have these views; the rollback values form one open transaction. *)

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

(** {2 Crash-image enumeration}

    Lines are [(obj_id, line index)] pairs at the configured cache-line
    width. At a crash, any subset of the in-flight lines may have
    reached NVM; {!Crash_space} enumerates those images. *)

val dirty_lines : t -> (int * int) list
(** Lines with at least one [Dirty] slot, sorted. *)

val unfenced_lines : t -> (int * int) list
(** Lines with at least one [Flushed] (written back but not yet fenced)
    slot, sorted. *)

val inflight_lines : t -> (int * int) list
(** Union of {!dirty_lines} and {!unfenced_lines}: every line whose
    persistence at a crash is undetermined. *)

val materialize : t -> persist:(int * int) list -> (int, Value.t array) Hashtbl.t
(** The durable image if exactly the [persist] lines were written back
    before the crash: chosen lines carry their cached slots, everything
    else keeps its fenced value, and open transactions are rolled back.
    [materialize t ~persist:[]] equals {!durable_snapshot}. *)

val volatile_slot_count : t -> int
(** Slots whose cached value differs from the durable view; zero means a
    crash loses nothing. *)

(** {1 Media corruption} — the recovery tier's crash model.

    A crash image says which in-flight lines reached NVM; the media
    model adds that any line {e in flight} at the crash may additionally
    have been torn mid-write-back. {!corrupt_image} applies that model
    to a materialized image deterministically from a seed, {!restore}
    reconstitutes a post-crash heap (values clean and durable, corrupt
    flags set), and the CRC primitives implement the verified-storage
    CRC-validates-data axiom recovery code uses to detect the damage. *)

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

val pp_corruption : corruption Fmt.t

val corrupt_image :
  t -> seed:int -> (int, Value.t array) Hashtbl.t -> corruption list
(** Mutates a {!materialize}d image in place: every in-flight line of
    [t] suffers one seeded corruption kind (torn / bit flip / stale).
    Returns the slots whose image value actually changed, in line
    order. Deterministic for a fixed heap and seed. *)

val restore :
  ?config:Config.t ->
  from:t ->
  image:(int, Value.t array) Hashtbl.t ->
  corrupt:addr list ->
  unit ->
  t
(** A fresh heap holding exactly the image: every object durable and
    [Clean], with the [corrupt] slots flagged. [from] supplies object
    metadata (types, names); volatile objects are not restored. *)

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
