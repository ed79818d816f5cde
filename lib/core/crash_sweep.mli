(** Crash-image exploration of whole programs: runs each program once
    into a {!Runtime.Crash_space.recording} and fans its tasks (one per
    crash point plus exit) out over the shared {!Pool}. Domains share
    only the immutable recordings. This is the only program-level crash
    explorer; with [~domains:1] it runs sequentially. *)

type job = {
  name : string;
  prog : Nvmir.Prog.t;
  entry : string;
  args : int list;
}

type program_report = {
  name : string;
  report : Runtime.Crash_space.report;
}

val explore_program :
  ?domains:int ->
  ?config:Runtime.Config.t ->
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

val sweep :
  ?domains:int ->
  ?config:Runtime.Config.t ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  job list ->
  program_report list
(** Explore many programs at once, interleaving their crash points over
    one pool; results are returned in job order, one per job. Each
    report equals {!explore_program} on that job alone, even when job
    names repeat. *)
