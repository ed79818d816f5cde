(** Parallel crash-image exploration: fans {!Runtime.Crash_space} tasks
    (one per crash point, per program) out over the shared {!Pool}. Each
    task re-executes its program independently, so nothing is shared
    between domains beyond the (read-only) program. *)

type job = {
  name : string;
  prog : Nvmir.Prog.t;
  entry : string;
  args : int list;
}

type program_report = {
  name : string;
  report : Runtime.Crash_space.report;
  elapsed_s : float;  (** summed per-task CPU seconds, not wall clock *)
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
(** Parallel equivalent of {!Runtime.Crash_space.explore}; [entry]
    defaults to ["main"]. *)

val sweep :
  ?domains:int ->
  ?config:Runtime.Config.t ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  job list ->
  program_report list
(** Explore many programs at once, interleaving their crash points over
    one pool; results are returned in job order. *)

val pp_program_report : program_report Fmt.t
