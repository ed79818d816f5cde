(* Static-analysis bounds (§4.3): path exploration is limited to a small
   number of loop iterations (10 by default) and recursion depth (5 by
   default); [max_paths] caps path enumeration per function so branchy
   code cannot explode trace collection. *)

type t = {
  loop_bound : int; (* times a back edge may be taken per path *)
  recursion_bound : int; (* times a function may appear on the call chain *)
  max_paths : int; (* paths enumerated per function *)
  expansion_fanout : int; (* callee traces spliced per call site *)
}

(* loop_bound and recursion_bound follow §4.3; the path and fan-out caps
   bound the interprocedural cross-product of merged traces, which the
   paper leaves implicit. *)
let default =
  { loop_bound = 10; recursion_bound = 5; max_paths = 64; expansion_fanout = 3 }

let pp ppf t =
  Fmt.pf ppf "loop_bound=%d recursion_bound=%d max_paths=%d expansion_fanout=%d"
    t.loop_bound t.recursion_bound t.max_paths t.expansion_fanout
