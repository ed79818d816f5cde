(* Order statistics over run samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two nearest order statistics. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* First quartile, median and third quartile as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default
   "exclusive" method), so spreads read the same here as in any script
   that checks a set of runs. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, median xs, q 3)
