(** Crash-image exploration of whole programs: splits the tasks of a
    {!Runtime.Crash_space.recording} (one per crash point plus exit)
    into [domains] contiguous ranges (default: the shared {!Pool}'s
    size), and sweeps each range in order
    ({!Runtime.Crash_space.explore_tasks}) on the pool, whose domains
    share only that immutable recording. With [~domains:1] it is one
    sweep on the calling domain; every split gives the same report. *)

val explore_recording :
  ?domains:int ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  Runtime.Crash_space.recording ->
  Runtime.Crash_space.report
(** Every crash point of a recorded run plus its exit, summarized;
    [oracle] defaults to [Sequential]. *)

val explore_program :
  ?domains:int ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** {!explore_recording} of a fresh recording; [entry] defaults to
    ["main"]. *)
