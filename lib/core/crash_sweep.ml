(* Parallel crash-image exploration. [Runtime.Crash_space] is kept free
   of any core dependency, so the domain fan-out lives here: the
   program runs once into an immutable recording, and its tasks are
   split into one contiguous range per domain. Each range is swept in
   order, so it rebuilds its crashed state once and carries it forward;
   results depend only on their task, so any split gives the same
   report. *)

module Crash_space = Runtime.Crash_space

let explore_recording ?domains ?(bound = Crash_space.default_bound)
    ?(seed = 1) ?(oracle = Crash_space.Sequential) recording =
  let crash_points = Crash_space.count_points recording in
  let tasks = Array.of_list (Crash_space.tasks ~crash_points) in
  let n = Array.length tasks in
  let pool = Pool.default () in
  let ranges =
    max 1 (min n (Option.value domains ~default:(Pool.size pool)))
  in
  List.init ranges (fun i ->
      let lo = i * n / ranges and hi = (i + 1) * n / ranges in
      Array.to_list (Array.sub tasks lo (hi - lo)))
  |> Pool.map ?domains ~chunk:1 pool
       (Crash_space.explore_tasks ~bound ~seed ~oracle recording)
  |> List.concat
  |> Crash_space.summarize ~crash_points

let explore_program ?domains ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  explore_recording ?domains ?bound ?seed ?oracle
    (Crash_space.record (fun pmem ->
         Runtime.Interp.create ~pmem prog
         |> Runtime.Interp.run ~entry ~args |> ignore))
