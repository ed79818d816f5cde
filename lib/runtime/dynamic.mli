(** The dynamic checker (§4.4): online analysis of epoch- and strand-
    annotated NVM programs. Attach it to a heap and run the program (via
    {!Interp} or native code using {!Pmem} directly); it tracks accesses
    inside annotated regions in a shadow segment, detects WAW/RAW races
    between strands, reports writes still volatile at epoch boundaries,
    and classifies redundant write-backs.

    The checker is safe to drive from several domains at once when each
    domain's heap is attached with {!attach_client}: all per-client
    state is private to that client, each attached heap has its own
    shadow segment (which takes no locks: one heap is driven from one
    domain), and warnings are aggregated (deterministically ordered) at
    summary time. *)

type t

val create :
  ?max_warnings:int -> model:Analysis.Model.t -> unit -> t
(** [max_warnings] caps stored warnings (default 10000); occurrences
    beyond the cap are still counted in the summary. *)

val attach : t -> Pmem.t -> unit
(** Register the checker as a listener; subsequent operations are
    monitored and attributed to the thread selected by {!set_thread}.
    Single-domain use only: clients sharing one heap, in order (the
    driver) or interleaved (the fuzzer).
    @raise Invalid_argument if the heap's object-id window (see
    {!Pmem.id_range}) overlaps an already-attached heap's — warnings
    name objects by id, so two clients' [obj5] would dedup into one
    warning. *)

val attach_client : t -> thread:int -> Pmem.t -> unit
(** Register a listener bound to client [thread]: every event of this
    heap is attributed to that client, with no shared attribution state,
    so the heap may be driven from its own domain concurrently with
    other clients'. Each heap is driven from one domain at a time: its
    shadow segment takes no locks.
    @raise Invalid_argument on an overlapping object-id window, as with
    {!attach}. *)

val set_thread : t -> int -> unit
(** Clients sharing one heap switch the active thread before they run
    (only affects heaps attached with {!attach}). *)

val warnings : t -> Analysis.Warning.t list
(** All stored warnings, sorted by (location, rule, message) — the same
    order regardless of how client execution interleaved. *)

type summary = {
  waw : int;
  raw : int;
  unflushed : int;  (** writes still volatile at an epoch boundary *)
  redundant : int;  (** flushes that wrote back nothing dirty *)
  tracked_cells : int;  (** shadow cells, summed over attached heaps *)
  warning_count : int;
  dropped : int;
}

val summary : t -> summary
val pp_summary : summary Fmt.t
