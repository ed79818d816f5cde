(* Counts and samples read from the layers' public results during a run
   phase (checker stats, cache outcomes, Pmem and Dynamic summaries).
   Written from the main domain only. *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let add name v =
  Hashtbl.replace sums name
    (v +. Option.value ~default:0. (Hashtbl.find_opt sums name))

let push name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

type snapshot = {
  s_sums : (string, float) Hashtbl.t;
  s_samples : (string, float list) Hashtbl.t;
}

let take () =
  let s = { s_sums = Hashtbl.copy sums; s_samples = Hashtbl.copy samples } in
  Hashtbl.reset sums;
  Hashtbl.reset samples;
  s

let sum s name = Option.value ~default:0. (Hashtbl.find_opt s.s_sums name)

let median s name =
  match Hashtbl.find_opt s.s_samples name with
  | Some (_ :: _ as xs) -> Stats.median xs
  | Some [] | None -> 0.
