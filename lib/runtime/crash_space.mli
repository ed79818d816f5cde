(** Crash-image state-space exploration: the one crash model.

    A crash is injected after the k-th persistent-memory event, or at
    program exit. This module enumerates the set of durable images
    reachable under the cache-line write-back model: at a crash, any
    subset of the in-flight lines ([Dirty], or [Flushed] but not yet
    fenced) may have reached NVM, with open transactions rolled back.
    One sweep per recording walks every crash point in order, carrying
    one crashed state (the slot views) forward from each to the next.
    Two subsets leave the same image exactly when they agree on the
    effective lines (those with a slot whose value changes when the
    line persists), so images are pruned by that projection, and the
    subset space is capped by a bound — exhaustive below it,
    deterministic sampling above it. A
    sample always starts with the empty subset, so the prefix image
    (what survives when nothing in flight persisted) is never lost;
    the full subset is drawn second, so at [bound = 1] only the empty
    subset is explored. The media model of the recovery tier damages
    these images too ({!crash_image}), so this is the one module that
    knows a crash image.

    {!sweep} judges each image with the one crash oracle, the
    sequential one: at a crash point the image must match some
    program-order prefix of the persistent write sequence (the states
    strict persistency allows); at {!Exit} it must equal the full
    write-back (no write left volatile). It hands each image to the
    recovery tier in the same walk; [Deepmc.Driver.analyze] feeds both
    tiers from it. A user property is an NVMIR function the recovery
    tier runs on every image (a nonzero return flags it), not a second
    oracle. *)

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
    persistent-memory events, per event the slots whose state changed
    there, and the write sequence's prefix-image hashes. Immutable once
    built, so sweeps may read it from any domain. *)

val record : ?config:Config.t -> (Pmem.t -> unit) -> recording
(** [record run] records the one execution [run] performs on the fresh
    heap it is given, once the recorder listens to that heap, so
    listeners [run] adds see each event after it. With eviction
    modeling on, the recording holds the evictions this run's seeded
    draws made. Counted by the [crash.executions] metric.
    @raise whatever [run] raises; no recording is returned then. *)

val count_points : recording -> int
(** How many [Point] tasks a program has: the persistent-memory events
    (write, flush, fence, tx begin/end) of the recorded run. *)

val obj_name : recording -> int -> string option
(** The name a recorded persistent object was allocated with. *)

val tasks : crash_points:int -> task list
(** [Point 1 .. Point crash_points] followed by {!Exit}. *)

(** {1 The sweep} *)

(** One distinct durable image of a crash task: which in-flight lines
    reached NVM, and the image as the heap a restart would see. *)
type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_restore : int option -> Pmem.t * Pmem.corruption list;
      (** [ci_restore media_seed] builds a fresh post-crash heap from the
          sweep's slot views: the live persistent objects with their
          recorded ids, types and names, every slot durable and clean
          with its image value (transaction rollback applied). With
          [Some seed], the media model first damages every line in
          flight at the crash, with one corruption kind drawn per line
          from an LCG seeded by [seed]: torn (each slot lands its fenced
          or its cached value), bit flip (one slot perturbed) or stale
          (the line reverts to its fenced values). The slots whose value
          changed are flagged corrupt on the heap and returned, in
          (object, line) order. Valid only while the sweep is at the
          image's task.
          @raise Invalid_argument once the sweep has moved on. *)
}

val sweep :
  bound:int -> seed:int -> recording -> (crash_image -> unit) -> report
(** The one sweep of a recording: its {!tasks} in order, on one cursor
    that starts before the first event (every slot null, no object
    live) and applies each event's changes on the way. At each task it
    enumerates the distinct durable images (at most [bound] subsets,
    the sampler seeded per task from [seed]), judges each with the
    sequential oracle, then hands it to the callback, which may restore
    it before the sweep moves on. The first image of a task has
    [ci_persisted = []]: it is the prefix image. One [crash-sweep]
    trace span per call. *)

val consistent : report -> bool
val pruning_ratio : report -> float
(** [1 - distinct/enumerated]; 0 when nothing was enumerated. *)

val first_witness : report -> witness option

val pp_task : task Fmt.t
val pp_line : (int * int) Fmt.t
val pp_witness : witness Fmt.t
val pp_report : report Fmt.t
