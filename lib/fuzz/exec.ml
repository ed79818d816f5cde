(* Deterministic interleaved execution of one schedule genome.

   All logical clients run as effect-based coroutines on ONE domain over
   ONE shared heap: a client yields to the scheduler at every
   persistence boundary (the [Interp.boundary_hook] performs [Yield]),
   and the genome decides — by global boundary index — who runs next
   and where the single delay-injection probe fires. No wall clock, no
   domain scheduler: the same (program, genome) replays bit for bit,
   which is what makes coverage fingerprints and warning sets
   byte-identical across runs and across pool domain counts (campaigns
   parallelize across independent executions, never inside one).

   Client entry points and arguments follow the program's client
   conventions ([Interp.clients]), whose setup runs first, unscheduled
   and attributed to client 0. Under the initial genome (no switch, no
   probe) the clients run to completion in client order, which is the
   driver's multi-client execution. *)

let m_execs =
  Obs.Metrics.counter "fuzz.execs"
    ~desc:"schedule executions (one interleaved run of all clients)"

type _ Effect.t +=
  | Yield : int * Runtime.Interp.boundary * Nvmir.Loc.t -> unit Effect.t

type status =
  | Not_started of (unit -> unit)
  | Waiting of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type result = {
  fingerprint : string;
  cov : Coverage.t;
  warnings : Analysis.Warning.t list;
  nboundaries : int;
  aborted : string option;
}

let boundary_kind = function
  | Runtime.Interp.Bflush -> 0
  | Runtime.Interp.Bfence -> 1
  | Runtime.Interp.Bpersist -> 2
  | Runtime.Interp.Btx_begin -> 3
  | Runtime.Interp.Btx_end -> 4
  | Runtime.Interp.Bepoch_begin -> 5
  | Runtime.Interp.Bepoch_end -> 6
  | Runtime.Interp.Bstrand_begin -> 7
  | Runtime.Interp.Bstrand_end -> 8

(* Interpreter step budget per client. *)
let fuel = 2_000_000

let run ~prog ~model ?(entry = "main") ?(entry_args = []) ~clients ~genome () =
  Obs.Metrics.incr m_execs;
  let clients = max 1 clients in
  let pmem = Runtime.Pmem.create () in
  let dyn = Runtime.Dynamic.create ~model () in
  Runtime.Dynamic.attach dyn pmem;
  let cov = Coverage.create () in
  let det = Detect.create ~model ~cov pmem in
  Detect.attach det;
  let counter = ref 0 in
  let state = Array.make clients Finished in
  let aborted = ref None in
  let set_active c =
    Runtime.Dynamic.set_thread dyn c;
    Detect.set_client det c
  in
  (* setup phase: unscheduled, attributed to client 0 *)
  set_active 0;
  let client =
    Runtime.Interp.clients ~fuel ~pmem ~entry ~args:entry_args prog
  in
  let next_runnable from =
    let rec go i n =
      if n >= clients then None
      else
        let c = i mod clients in
        match state.(c) with Finished -> go (i + 1) (n + 1) | _ -> Some c
    in
    go from 0
  in
  let rec resume c =
    set_active c;
    match state.(c) with
    | Not_started f ->
      state.(c) <- Running;
      start c f
    | Waiting k ->
      state.(c) <- Running;
      Effect.Deep.continue k ()
    | Running | Finished -> schedule_from (c + 1)
  and schedule_from i =
    match next_runnable i with Some c -> resume c | None -> ()
  and start c f =
    Effect.Deep.match_with f ()
      {
        retc =
          (fun () ->
            state.(c) <- Finished;
            schedule_from (c + 1));
        exnc =
          (fun e ->
            state.(c) <- Finished;
            if !aborted = None then aborted := Some (Printexc.to_string e);
            schedule_from (c + 1));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield (yc, b, loc) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let n = !counter in
                  incr counter;
                  Coverage.touch_boundary cov ~client:yc
                    ~kind:(boundary_kind b) ~index:n;
                  (if b = Runtime.Interp.Bepoch_end then
                     Coverage.touch_epoch cov ~client:yc
                       ~volatile:(Runtime.Pmem.volatile_slot_count pmem));
                  if n = genome.Genome.probe_at then Detect.probe det b loc;
                  let target =
                    match Genome.find_switch genome n with
                    | Some s -> (yc + s.Genome.target) mod clients
                    | None -> yc
                  in
                  if target <> yc && state.(target) <> Finished then begin
                    state.(yc) <- Waiting k;
                    resume target
                  end
                  else begin
                    set_active yc;
                    Effect.Deep.continue k ()
                  end)
            | _ -> None);
      }
  in
  Array.iteri
    (fun c _ ->
      let interp =
        Runtime.Interp.create ~fuel
          ~boundary_hook:(fun b loc ->
            Effect.perform (Yield (c, b, loc));
            (* resumed: the boundary instruction executes next, so the
               detector knows e.g. that the coming fence is a commit *)
            Detect.set_boundary det (Some b))
          ~pmem prog
      in
      let entry, args = client c in
      state.(c) <-
        Not_started
          (fun () -> ignore (Runtime.Interp.run_values ~entry ~args interp)))
    state;
  schedule_from 0;
  let warnings =
    Analysis.Warning.dedup
      (Analysis.Warning.sort (Runtime.Dynamic.warnings dyn @ Detect.warnings det))
  in
  {
    fingerprint = Coverage.fingerprint cov;
    cov;
    warnings;
    nboundaries = !counter;
    aborted = !aborted;
  }
