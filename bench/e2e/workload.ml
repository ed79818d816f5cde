(* What every workload provides to the runner. *)

type outcome = {
  latency_ns : int64;  (** the request's timed interval *)
  kind : string;  (** request class within the workload ("" if one) *)
  input : string;  (** names the input in failure reports *)
  failures : string list;  (** oracle verdicts; empty when correct *)
}

type instance = {
  run : int -> outcome;
      (** Request [i]: prepares its input untimed, times the call, then
          checks the result against ground truth, untimed. Called with
          i = 0, 1, 2, ... *)
  verify : unit -> (int * string) list;
      (** Checks made once after the loop: (request index, reason). *)
}

type t = {
  name : string;
  domains : int;
      (** Pool size the workload runs with (at most nproc). Only the
          workloads whose point is parallel work use two domains: on a
          shared 2-vCPU host, a request that waits on a second domain
          slows far more than the single-domain reference kernel shows
          whenever the other vCPU is contended, so single-domain
          workloads keep one, as [deepmc] does by default on 2 CPUs. *)
  setup : seed:int -> traced:bool -> instance;
      (** Builds the inputs from [seed] and primes the program; traced
          instances split each request into its layer calls. *)
}

(* Time [f] as request [i]; in a traced run it is also the request span
   every layer call nests in. *)
let timed ~traced i f =
  let t0 = Tracer.now () in
  let r =
    match if traced then Tracer.request i f else f () with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  (r, Int64.sub (Tracer.now ()) t0)

let outcome ?(kind = "") ~input (r, latency_ns) oracle =
  let failures =
    match r with
    | Error e -> [ "raised " ^ e ]
    | Ok v -> (
      try oracle v with e -> [ "oracle raised " ^ Printexc.to_string e ])
  in
  { latency_ns; kind; input; failures }

(* A stream of draws that reproduces from (seed, salt). *)
let rng ~seed salt = Random.State.make [| seed; salt |]
