(* The crash tier on its own recording, for the benchmark's per-layer
   split; the commands and the examples go through [Driver.analyze]. *)

module Crash_space = Runtime.Crash_space

let explore_program ?(bound = Crash_space.default_bound) ?(seed = 1)
    ?(entry = "main") ?(args = []) prog =
  Crash_space.sweep ~bound ~seed
    (Crash_space.record (fun pmem ->
         Runtime.Interp.create ~pmem prog
         |> Runtime.Interp.run ~entry ~args |> ignore))
    ignore
