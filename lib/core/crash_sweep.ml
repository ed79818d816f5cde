(* Parallel crash-image exploration. [Runtime.Crash_space] is kept free
   of any core dependency, so the domain fan-out lives here: the
   program runs once into an immutable recording, and each crash point
   is an independent read of it, which is exactly the shape [Pool.map]
   wants. *)

let explore_program ?domains ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  let recording = Runtime.Crash_space.record ~entry ~args prog in
  let crash_points = Runtime.Crash_space.count_points recording in
  Pool.map ?domains (Pool.default ())
    (fun task ->
      Runtime.Crash_space.explore_task ?bound ?seed ?oracle ~task recording)
    (Runtime.Crash_space.tasks ~crash_points)
  |> Runtime.Crash_space.summarize ~crash_points
