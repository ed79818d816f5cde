(** Deterministic interleaved execution of one schedule genome: all
    logical clients run as effect-based coroutines on one domain over
    one shared heap, yielding to the scheduler at every persistence
    boundary. The same (program, genome) replays bit for bit.

    Client entry points and arguments follow
    {!Runtime.Interp.clients}, whose setup runs first, unscheduled.
    Under {!Genome.initial} the clients run to completion in client
    order: the driver's multi-client execution. *)

type result = {
  fingerprint : string;  (** coverage digest, byte-stable *)
  cov : Coverage.t;
  warnings : Analysis.Warning.t list;
      (** dynamic checker + fuzz detectors, deduplicated and sorted *)
  nboundaries : int;  (** boundaries crossed — the genome index space *)
  aborted : string option;  (** first client abort, if any *)
}

val run :
  prog:Nvmir.Prog.t ->
  model:Analysis.Model.t ->
  ?entry:string ->
  ?entry_args:int list ->
  clients:int ->
  genome:Genome.t ->
  unit ->
  result
