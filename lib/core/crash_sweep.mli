(** The crash tiers' one sweep per recording: the crash oracle and the
    recovery tier read the same in-order walk
    ({!Runtime.Crash_space.sweep}) on the calling domain. *)

val sweep :
  bound:int ->
  seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?recovery:Recover.run ->
  Runtime.Crash_space.recording ->
  Runtime.Crash_space.report * Recover.report option
(** Every crash point of a recorded run plus its exit, at most [bound]
    images a point, sampled from [seed]. Each distinct image is judged
    by [oracle] when one is given (the report has no witnesses
    otherwise), then checked by [recovery] when one is given, whose
    report comes back beside the crash report, inside a
    [recover-verify] trace span. *)

val explore_program :
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** The crash report of a fresh recording of [entry] (default
    ["main"]); [bound] defaults to
    {!Runtime.Crash_space.default_bound}, [seed] to 1 and [oracle] to
    [Sequential]. *)
