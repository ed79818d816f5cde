(* Parallel crash-image exploration. [Runtime.Crash_space] is kept free
   of any core dependency, so the domain fan-out lives here: each
   program runs once into an immutable recording, and each (program,
   crash point) pair is an independent read of it, which is exactly the
   shape [Pool.map] wants. *)

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

let tasks_of recording =
  Runtime.Crash_space.tasks
    ~crash_points:(Runtime.Crash_space.count_points recording)

let explore_program ?domains ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  let recording = Runtime.Crash_space.record ~entry ~args prog in
  let points =
    Pool.map ?domains (Pool.default ())
      (fun task ->
        Runtime.Crash_space.explore_task ?bound ?seed ?oracle ~task recording)
      (tasks_of recording)
  in
  Runtime.Crash_space.summarize
    ~crash_points:(Runtime.Crash_space.count_points recording)
    points

let sweep ?domains ?bound ?seed (jobs : job list) :
    program_report list =
  (* Record every job, flatten to (job position, task) pairs so small
     programs don't serialize behind large ones, then regroup by
     position: job names need not be unique. *)
  let recordings =
    Pool.map ?domains (Pool.default ())
      (fun (j : job) ->
        Runtime.Crash_space.record ~entry:j.entry ~args:j.args j.prog)
      jobs
  in
  let done_work =
    Pool.map ?domains (Pool.default ())
      (fun (i, r, task) ->
        (i, Runtime.Crash_space.explore_task ?bound ?seed ~task r))
      (List.concat
         (List.mapi
            (fun i r -> List.map (fun t -> (i, r, t)) (tasks_of r))
            recordings))
  in
  List.mapi
    (fun i ((j : job), r) ->
      {
        name = j.name;
        report =
          Runtime.Crash_space.summarize
            ~crash_points:(Runtime.Crash_space.count_points r)
            (List.filter_map
               (fun (i', p) -> if i' = i then Some p else None)
               done_work);
      })
    (List.combine jobs recordings)
