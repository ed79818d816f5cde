(** A crash report of a fresh recording, outside the driver. Kept for
    the benchmark's per-layer split and the examples' [Invariant]
    oracles; every command reaches the crash tiers through
    {!Driver.analyze}, which pairs the sweep with the recovery tier. *)

val explore_program :
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** The crash report of a fresh recording of [entry] (default
    ["main"]), one {!Runtime.Crash_space.sweep} of it; [bound] defaults
    to {!Runtime.Crash_space.default_bound}, [seed] to 1 and [oracle]
    to [Sequential]. *)
