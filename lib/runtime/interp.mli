(** IR interpreter over the NVM simulator. All persistent operations go
    through {!Pmem}, so attached listeners — in particular the dynamic
    checker — observe exactly the events an instrumented binary would
    produce (steps 5–6 of Figure 8). *)

exception Runtime_error of string * Nvmir.Loc.t
exception Out_of_fuel

(** Persistence-ordering boundaries — the instruction classes at which
    an interleaving scheduler may preempt the executing thread. *)
type boundary =
  | Bflush
  | Bfence
  | Bpersist
  | Btx_begin
  | Btx_end
  | Bepoch_begin
  | Bepoch_end
  | Bstrand_begin
  | Bstrand_end

val boundary_name : boundary -> string

type t

val create :
  ?fuel:int ->
  ?boundary_hook:(boundary -> Nvmir.Loc.t -> unit) ->
  pmem:Pmem.t ->
  Nvmir.Prog.t ->
  t
(** [fuel] bounds executed steps (default 5M). [boundary_hook] fires
    {e before} each boundary instruction executes — so a hook observing
    [Bflush] runs between the preceding stores and the write-back,
    which is exactly the preemption window delay-injection schedulers
    need. The hook may perform effects (the fuzzer yields to its
    scheduler from it); the interpreter keeps no state across the
    call. *)

val pmem : t -> Pmem.t
val steps : t -> int

val corrupt_reads : t -> (Pmem.addr * Nvmir.Loc.t) list
(** Unguarded reads (a load, or a pointer deref during place
    resolution) that hit media-corrupt slots, in execution order (empty
    unless the heap is a post-crash heap with corrupt flags,
    {!Pmem.restore}). Such a
    read is recorded, never raised, so silently-accepting recovery code
    runs to completion — the very bug the recovery tier classifies. CRC
    primitives ({!Nvmir.Instr.Crc_of}/[Crc_check]) are guarded reads
    and never appear here. *)

val run : ?entry:string -> ?args:int list -> t -> Value.t
(** Execute [entry] (default ["main"]) with integer arguments.
    @raise Runtime_error on ill-formed executions, an index outside its
    object and a reference to no object included, at the
    instruction's location.
    @raise Out_of_fuel when the step budget is exhausted.
    @raise Invalid_argument when [entry] is undefined. *)

val run_values : ?entry:string -> ?args:Value.t list -> t -> Value.t
(** [run] with pre-built argument values (references included), for
    callers that thread one shared allocation into several entry
    points (see {!clients}). *)

val clients :
  ?fuel:int ->
  pmem:Pmem.t ->
  entry:string ->
  args:int list ->
  Nvmir.Prog.t ->
  (int -> string * Value.t list)
(** The client conventions, read once for all clients: [fuzz_setup],
    when defined, runs first on [pmem] ([fuel] steps) and a non-null
    result is every client's one argument, else they take [args]; the
    result maps client [c] to [fuzz_client_<c>] when defined, else
    [entry], and those arguments. The fuzzer and the driver read it.
    @raise Runtime_error and {!Out_of_fuel} from [fuzz_setup]. *)
