(** Crash-image exploration of whole programs: runs each program once
    into a {!Runtime.Crash_space.recording} and fans its tasks (one per
    crash point plus exit) out over the shared {!Pool}. Domains share
    only the immutable recording. This is the only program-level crash
    explorer; with [~domains:1] it runs sequentially. *)

val explore_program :
  ?domains:int ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** Explore every crash point of one program plus its exit and
    summarize them; [entry] defaults to ["main"] and [oracle] to
    [Sequential]. *)
