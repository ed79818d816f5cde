(** Recovery-path verification: the recovery tier.

    The static and dynamic tiers check the {e forward} path — that a
    program's stores become durable in the right order. This module
    checks the {e backward} path: for every durable image a crash can
    leave ({!Runtime.Crash_space.task_images}), optionally corrupted
    under the media model ({!Runtime.Pmem.corrupt_image}), the
    program's recovery entry is reconstituted onto the image and
    executed, and its behaviour is classified.

    Three rules fall out, all invisible to the static tier:

    - [unguarded-recovery-read]: recovery read a corrupt slot through a
      plain load instead of a CRC-guarded path;
    - [silent-corruption-accept]: recovery returned success while
      corrupt slots were still present;
    - [non-idempotent-recovery]: running recovery a second time over
      the already-recovered heap changed persistent state (recovery
      must be a fix-point, since a crash {e during} recovery reruns
      it). *)

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

val verify_recording :
  ?recovery_entry:string ->
  ?bound:int ->
  ?seed:int ->
  ?corrupt:bool ->
  ?model:Analysis.Model.t ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.recording ->
  report
(** Run [recovery_entry] (default ["recover"]) over every distinct
    durable image of every crash task of the program's recorded run.
    [corrupt] (default [true]) applies the seeded
    media-corruption model to each image first. The recovery function
    receives references to the first [k] persistent objects of the
    restored heap, one per parameter, in id order; its return value is
    the accept (zero) / flag (nonzero) signal.

    @raise Invalid_argument when [recovery_entry] is not defined. *)

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
(** {!verify_recording} of a fresh recording of [entry] (default the
    program's main). *)

val consistent : report -> bool
(** No warnings: every image was either restored or flagged, all reads
    of corrupt slots were CRC-guarded, and recovery is idempotent. *)

val pp_report : report Fmt.t
