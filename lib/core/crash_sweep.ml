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
}

let tasks_of ?config ~entry ~args prog =
  let crash_points =
    Runtime.Crash_space.count_points ?config ~entry ~args prog
  in
  (crash_points, Runtime.Crash_space.tasks ~crash_points)

let explore_program ?domains ?config ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  let crash_points, tasks = tasks_of ?config ~entry ~args prog in
  let points =
    Pool.map ?domains (Pool.default ())
      (fun task ->
        Runtime.Crash_space.explore_task ?config ~entry ~args ?bound ?seed
          ?oracle ~task prog)
      tasks
  in
  Runtime.Crash_space.summarize ~crash_points points

let sweep ?domains ?config ?bound ?seed ?oracle (jobs : job list) :
    program_report list =
  (* Flatten to (job position, task) pairs so small programs don't
     serialize behind large ones, then regroup by position: job names
     need not be unique. *)
  let planned =
    List.mapi
      (fun i j -> (i, j, tasks_of ?config ~entry:j.entry ~args:j.args j.prog))
      jobs
  in
  let done_work =
    Pool.map ?domains (Pool.default ())
      (fun (i, j, task) ->
        ( i,
          Runtime.Crash_space.explore_task ?config ~entry:j.entry ~args:j.args
            ?bound ?seed ?oracle ~task j.prog ))
      (List.concat_map
         (fun (i, j, (_, tasks)) -> List.map (fun t -> (i, j, t)) tasks)
         planned)
  in
  List.map
    (fun (i, (j : job), (crash_points, _)) ->
      {
        name = j.name;
        report =
          Runtime.Crash_space.summarize ~crash_points
            (List.filter_map
               (fun (i', r) -> if i' = i then Some r else None)
               done_work);
      })
    planned
