(* Parallel crash-image exploration. [Runtime.Crash_space] is kept free
   of any core dependency, so the domain fan-out lives here: each
   (program, crash point) pair is an independent re-execution, which is
   exactly the shape [Pool.map] wants. *)

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

let tasks_of ?config ~entry ~args prog =
  let total = Runtime.Crash_space.count_points ?config ~entry ~args prog in
  ( total,
    List.init total (fun i -> Runtime.Crash_space.Point (i + 1))
    @ [ Runtime.Crash_space.Exit ] )

let explore_program ?domains ?config ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  let total, tasks = tasks_of ?config ~entry ~args prog in
  let points =
    Pool.map ?domains (Pool.default ())
      (fun task ->
        Runtime.Crash_space.explore_task ?config ~entry ~args ?bound ?seed
          ?oracle ~task prog)
      tasks
  in
  Runtime.Crash_space.summarize ~crash_points:total points

let sweep ?domains ?config ?bound ?seed ?oracle (jobs : job list) :
    program_report list =
  (* Flatten to (job, task) pairs so small programs don't serialize
     behind large ones, then regroup per job in submission order. *)
  let work =
    List.concat_map
      (fun j ->
        let _, tasks = tasks_of ?config ~entry:j.entry ~args:j.args j.prog in
        List.map (fun t -> (j, t)) tasks)
      jobs
  in
  let done_work =
    Pool.map ?domains (Pool.default ())
      (fun (j, task) ->
        let t0 = Clock.now () in
        let r =
          Runtime.Crash_space.explore_task ?config ~entry:j.entry ~args:j.args
            ?bound ?seed ?oracle ~task j.prog
        in
        (j.name, r, Clock.elapsed_s t0))
      work
  in
  List.map
    (fun (j : job) ->
      let points, elapsed =
        List.fold_left
          (fun (ps, el) (name, r, dt) ->
            if String.equal name j.name then (r :: ps, el +. dt) else (ps, el))
          ([], 0.) done_work
      in
      let crash_points =
        Runtime.Crash_space.count_points ?config ~entry:j.entry ~args:j.args
          j.prog
      in
      {
        name = j.name;
        report =
          Runtime.Crash_space.summarize ~crash_points (List.rev points);
        elapsed_s = elapsed;
      })
    jobs

let pp_program_report ppf r =
  Fmt.pf ppf "%-22s %a  (%.1f ms cpu)" r.name Runtime.Crash_space.pp_report
    r.report
    (r.elapsed_s *. 1000.)
