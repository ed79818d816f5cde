(** Crash-image state-space exploration: the one crash model.

    A crash is injected after the k-th persistent-memory event, or at
    program exit. This module enumerates the set of durable images
    reachable under the cache-line write-back model: at a crash, any
    subset of the in-flight lines ([Dirty], or [Flushed] but not yet
    fenced) may have reached NVM, with open transactions rolled back.
    Images are pruned by persistence-equivalence hashing and the subset
    space is capped by a bound — exhaustive below it, deterministic
    sampling above it. A sample always starts with the empty subset, so
    the prefix image ({!Pmem.durable_snapshot} of the crashed heap) is
    never lost; the full subset is drawn second, so at [bound = 1] only
    the empty subset is explored.

    [Deepmc.Crash_sweep.explore_recording] drives {!explore_task} over
    every task of a recording. *)

(** How an image is judged consistent. *)
type oracle =
  | Sequential
      (** At a crash point, the image must match some program-order
          prefix of the persistent write sequence (the states strict
          persistency allows); at {!Exit} the image must equal the full
          write-back (no write left volatile). *)
  | Invariant of ((Pmem.addr -> Value.t) -> (unit, string) result)
      (** A user predicate over the materialized durable image. Unknown
          addresses read as {!Value.Vnull}. *)

(** A unit of exploration: crash after the k-th persistent event, or
    program exit (where still-volatile lines are simply lost). *)
type task = Point of int | Exit

type witness = {
  w_task : task;
  w_persisted : (int * int) list;
      (** the in-flight lines that reached NVM in this image *)
  w_detail : string;
}

type point_result = {
  task : task;
  candidate_lines : int;
  subsets_enumerated : int;
  distinct_images : int;
  sampled : bool;  (** the subset space exceeded the bound *)
  witnesses : witness list;  (** one per distinct inconsistent image *)
}

type report = {
  points : point_result list;
  crash_points : int;  (** event-injection points, excluding exit *)
  images_enumerated : int;
  images_distinct : int;
  inconsistent : int;
  witnesses : witness list;
}

val default_bound : int
(** 256 subsets per crash point. *)

type recording
(** One execution of a program, recorded: per persistent slot, the
    timeline of its cached, fenced, line and rollback state across the
    persistent-memory events, plus the write sequence's prefix-image
    hashes. Immutable once built, so tasks may read it from any
    domain. *)

val record :
  ?config:Config.t ->
  ?attach:(Pmem.t -> unit) ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  recording
(** Run the program once ([entry] defaults to [main]), with the
    caller's listeners [attach]ed to its heap first. With eviction
    modeling on, the recording holds the evictions this run's seeded
    draws made. Counted by the [crash.executions] metric.
    @raise Interp.Runtime_error and the interpreter's other failures. *)

val count_points : recording -> int
(** How many [Point] tasks a program has: the persistent-memory events
    (write, flush, fence, tx begin/end) of the recorded run. *)

val obj_name : recording -> int -> string option
(** The name a recorded persistent object was allocated with. *)

val tasks : crash_points:int -> task list
(** [Point 1 .. Point crash_points] followed by {!Exit}. *)

val explore_task :
  ?bound:int ->
  ?seed:int ->
  ?oracle:oracle ->
  task:task ->
  recording ->
  point_result
(** Explore one crash point of a recorded run. Pure per-task, so
    callers may fan tasks out across domains and {!summarize} the
    results. Invariant oracles read the image through the function
    they are passed; the first image judged is always the prefix
    image. *)

(** {1 Image enumeration} — the recovery tier's entry point. *)

(** One distinct durable image of a crash task: which in-flight lines
    reached NVM, and the materialized per-object slot arrays (transaction
    rollback applied). *)
type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_image : (int, Value.t array) Hashtbl.t;
}

val task_images :
  ?bound:int ->
  ?seed:int ->
  task:task ->
  recording ->
  Pmem.t * crash_image list * bool
(** The crashed heap of a recorded run at [task], the distinct durable
    images it can leave (the same walk as {!explore_task}: one
    enumeration, pruning and bound), and whether the subset space was
    sampled. The first image has [ci_persisted = []] and equals
    {!Pmem.durable_snapshot} of the heap. The heap holds the persistent
    objects as the crash left them ({!Pmem.crashed}); it is what
    {!Pmem.corrupt_image} seeds from and {!Pmem.restore} copies object
    metadata from. *)

val reader : (int, Value.t array) Hashtbl.t -> Pmem.addr -> Value.t
(** Reads of a materialized image, as an {!Invariant} oracle sees them:
    unknown addresses read as {!Value.Vnull}. *)

val summarize : crash_points:int -> point_result list -> report

val consistent : report -> bool
val pruning_ratio : report -> float
(** [1 - distinct/enumerated]; 0 when nothing was enumerated. *)

val first_witness : report -> witness option

val pp_task : task Fmt.t
val pp_line : (int * int) Fmt.t
val pp_witness : witness Fmt.t
val pp_report : report Fmt.t
