(* Memory persistency models (§2.2), the compile-time flag of DeepMC.

   - [Strict]: every persistent store becomes durable in program order;
     each store is followed by its own flush and persist barrier.
   - [Epoch]: stores within an epoch may persist in any order; all
     stores of epoch E1 persist before any store of a later epoch E2,
     enforced by a persist barrier at each epoch boundary.
   - [Strand]: epochs (strands) may additionally persist concurrently
     with each other when they have no WAW/RAW data dependence. *)

type t = Strict | Epoch | Strand

let all = [ Strict; Epoch; Strand ]

let to_string = function
  | Strict -> "strict"
  | Epoch -> "epoch"
  | Strand -> "strand"

let of_string = function
  | "strict" -> Some Strict
  | "epoch" -> Some Epoch
  | "strand" -> Some Strand
  | _ -> None

let flag t = "-" ^ to_string t
let pp ppf t = Fmt.string ppf (to_string t)

(* The model a relaxation refines: used by the report to explain which
   guarantees a violation endangers. *)
let relaxes = function
  | Strict -> None
  | Epoch -> Some Strict
  | Strand -> Some Epoch

let equal a b =
  match (a, b) with
  | Strict, Strict | Epoch, Epoch | Strand, Strand -> true
  | (Strict | Epoch | Strand), _ -> false
