(** Crash-image exploration of whole programs: fans the tasks of a
    {!Runtime.Crash_space.recording} (one per crash point plus exit)
    out over the shared {!Pool}, whose domains share only that
    immutable recording. With [~domains:1] it runs sequentially. *)

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
