(* One crash sweep per recording, feeding both crash tiers:
   [Runtime.Crash_space] walks the images and judges them with the
   crash oracle, and [Recover] checks each one from the same walk.
   [Recover] knows nothing of the oracle, so the pairing lives here. *)

module Crash_space = Runtime.Crash_space

let sweep ~bound ~seed ?oracle ?recovery recording =
  let go () =
    let crash =
      Crash_space.sweep ~bound ~seed ?oracle recording
        (Option.fold ~none:ignore ~some:Recover.check_image recovery)
    in
    (crash, Option.map (fun run -> Recover.finish run recording crash) recovery)
  in
  if Option.is_some recovery then Obs.Span.with_ ~name:"recover-verify" go
  else go ()

let explore_program ?(bound = Crash_space.default_bound) ?(seed = 1)
    ?(oracle = Crash_space.Sequential) ?(entry = "main") ?(args = []) prog =
  fst
    (sweep ~bound ~seed ~oracle
       (Crash_space.record (fun pmem ->
            Runtime.Interp.create ~pmem prog
            |> Runtime.Interp.run ~entry ~args |> ignore)))
