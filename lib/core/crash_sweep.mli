(** A crash report of a fresh recording, outside the driver. Kept only
    for the benchmark's per-layer split ([bench/e2e/split.ml]), which
    times the crash tier on its own; every command and example reaches
    the crash tiers through {!Driver.analyze}, which pairs the sweep
    with the recovery tier. [make front-door] fails when other code in
    [lib/], [bin/] or [examples/] calls it. *)

val explore_program :
  ?bound:int ->
  ?seed:int ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** The crash report of a fresh recording of [entry] (default
    ["main"]), one {!Runtime.Crash_space.sweep} of it, judged by the
    sequential oracle; [bound] defaults to
    {!Runtime.Crash_space.default_bound} and [seed] to 1. *)
