(** Recovery-path verification: the recovery tier.

    The static and dynamic tiers check the {e forward} path — that a
    program's stores become durable in the right order. This module
    checks the {e backward} path: for every durable image a crash can
    leave, the crash sweep ({!Runtime.Crash_space.sweep}) builds the
    post-crash heap a restart would see, optionally corrupted under
    its media model ({!Runtime.Crash_space.crash_image}); the program's
    recovery entry runs on that heap, and its behaviour is
    classified.

    Four rules fall out, all invisible to the static tier:

    - [unguarded-recovery-read]: recovery read a corrupt slot through a
      plain load instead of a CRC-guarded path;
    - [silent-corruption-accept]: recovery returned success while
      corrupt slots were still present;
    - [non-idempotent-recovery]: running recovery a second time over
      the already-recovered heap changed persistent state (recovery
      must be a fix-point, since a crash {e during} recovery reruns
      it). A first run that writes no persistent slot and allocates no
      object leaves the heap as it found it, so the second run would
      repeat it exactly; it is skipped and the image is idempotent;
    - [recovery-crash]: recovery died with a runtime error or ran out
      of fuel; reported at the failing instruction. *)

(** How one recovery execution ended. *)
type verdict =
  | Restored  (** returned success, no corruption left *)
  | Flagged  (** returned nonzero: corruption detected and reported *)
  | Silent_accept  (** returned success with corrupt slots remaining *)
  | Crashed  (** runtime error or fuel exhaustion *)

val verdict_name : verdict -> string

(** One crash image run through recovery. *)
type image_check = {
  task : Runtime.Crash_space.task;
  persisted : (int * int) list;  (** in-flight lines that reached NVM *)
  corruptions : Runtime.Pmem.corruption list;
  verdict : verdict;
  corrupt_reads : (Runtime.Pmem.addr * Nvmir.Loc.t) list;
      (** unguarded reads of corrupt slots during the first run *)
  residual_corrupt : int;  (** corrupt slots left when recovery returned *)
  idempotent : bool;  (** second run left persistent state unchanged *)
  failure : (string * Nvmir.Loc.t) option;
      (** why a [Crashed] first run died, and where ([Nvmir.Loc.none]
          when it ran out of fuel) *)
}

type report = {
  recovery_entry : string;
  images : image_check list;
  crash_points : int;
  images_checked : int;
  corruptions_injected : int;
  restored : int;
  flagged : int;
  silent_accepts : int;
  crashes : int;
  non_idempotent : int;
  sampled : bool;  (** some crash point's subset space was sampled *)
  warnings : Analysis.Warning.t list;  (** deduplicated, sorted *)
}

(** {1 A verification}

    A {!run} checks the images a sweep hands it, one by one, and
    {!finish} assembles the report. [Deepmc.Driver.analyze] feeds it
    from the same walk that judges the crash tier's images; only
    {!verify}, kept for the benchmark and the tests, sweeps itself. *)

type run
(** A verification under way: the images checked so far. *)

val start :
  recovery_entry:string ->
  seed:int ->
  corrupt:bool ->
  model:Analysis.Model.t ->
  Nvmir.Prog.t ->
  run
(** Verify [recovery_entry] of the program. The recovery function
    receives references to the first [k] persistent objects of the
    restored heap, one per parameter, in id order; its return value is
    the accept (zero) / flag (nonzero) signal. [model] is the model its
    warnings carry.
    @raise Invalid_argument when [recovery_entry] is not defined. *)

val check_image : run -> Runtime.Crash_space.crash_image -> unit
(** Restore the image, run recovery on it and keep the outcome. With
    [corrupt], the [n]-th image checked (from 1) is first damaged by
    the media model under seed [seed + 137 * n]. Call it from the
    sweep's callback, while the image can still be restored. *)

val finish :
  run -> Runtime.Crash_space.recording -> Runtime.Crash_space.report -> report
(** The report of the images checked, given the recording and the
    sweep's report (its crash points and whether any was sampled). *)

val verify :
  ?entry:string ->
  ?args:int list ->
  ?recovery_entry:string ->
  ?bound:int ->
  ?seed:int ->
  ?corrupt:bool ->
  ?model:Analysis.Model.t ->
  Nvmir.Prog.t ->
  report
(** Every distinct durable image of every crash task of a fresh
    recording of [entry] (default the program's main), checked by a
    {!run} of [recovery_entry] (default ["recover"]) under one sweep;
    [corrupt] defaults to [true], [seed] to 1 and [model] to strict.
    The same report as [Deepmc.Driver.analyze ~verify_recovery:true].
    @raise Invalid_argument when [recovery_entry] is not defined. *)

val consistent : report -> bool
(** No warnings: every image was either restored or flagged (none
    crashed recovery), all reads of corrupt slots were CRC-guarded, and
    recovery is idempotent. *)

val pp_report : report Fmt.t
