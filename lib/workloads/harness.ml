(* Measurement harness for the application benchmarks (Table 6 /
   Figure 12): runs a fixed number of transactions from simulated
   clients against a store built on the NVM runtime, with or without
   the dynamic checker attached, and reports throughput.

   Each client gets its own heap + store instance, built on the
   client's pool domain, and runs its share of the transactions there,
   all observed by one checker through client-bound listeners (the
   paper's setup). The set-up runs before the clock starts, so
   [elapsed_s] covers the transactions only. Client heaps allocate from
   disjoint object-id ranges, so warnings, which name objects by id,
   never fold two clients' objects into one; each heap has its own
   shadow segment, which makes the reported warnings independent of
   domain interleaving. *)

type execution = Concurrent

type result = {
  label : string;
  txs : int;
  clients : int;
  elapsed_s : float;
  throughput : float; (* transactions per second *)
  checked : bool;
  dynamic : Runtime.Dynamic.summary option;
  stores : int;
  loads : int;
  flushes : int;
  fences : int;
}

let sum_stats pmems =
  List.fold_left
    (fun (st, ld, fl, fe) pm ->
      let s = Runtime.Pmem.stats pm in
      ( st + s.Runtime.Pmem.stores,
        ld + s.Runtime.Pmem.loads,
        fl + s.Runtime.Pmem.flushes,
        fe + s.Runtime.Pmem.fences ))
    (0, 0, 0, 0) pmems

let finish ~label ~txs ~clients ~checked ~checker ~pmems ~elapsed_s =
  let stores, loads, flushes, fences = sum_stats pmems in
  {
    label;
    txs;
    clients;
    elapsed_s;
    throughput = float_of_int txs /. elapsed_s;
    checked;
    dynamic = Option.map Runtime.Dynamic.summary checker;
    stores;
    loads;
    flushes;
    fences;
  }

(* [setup] builds the store on a fresh heap; [op] executes one client
   transaction. The dynamic checker (epoch model: all three applications
   use epoch-style persistence) is attached before the run when
   [checked] is set, mirroring the instrumented binaries of §5.2. *)
(* Every randomized path seeds from [seed] (default the historical
   0xC0FFEE) so one CLI/bench --seed reproduces the whole run. *)
let default_seed = 0xC0FFEE

let model = Analysis.Model.Epoch

(* Object ids reserved per client heap: no workload here allocates a
   million objects, and each heap's object table starts at its window,
   so the windows cost nothing. *)
let stride = 1 lsl 20

(* Real client domains: each client owns a heap and a store instance.
   One pool map builds them, each on its client's domain (heap, checker
   listener, [setup]); a second runs each client's share of the
   transactions as one pool task, so the measured interval contains
   genuine multicore execution and no set-up. No barrier joins the two
   phases: on a 1-core host the pool runs the tasks on the submitter,
   one after the other, where a barrier would never open. *)
let run_concurrent ~label ~seed ~clients ~txs ~checked ~setup ~op =
  let checker =
    if checked then Some (Runtime.Dynamic.create ~model ()) else None
  in
  let pool = Pool.default () in
  let contexts =
    Pool.map ~domains:clients ~chunk:1 pool
      (fun c ->
        let pmem =
          Runtime.Pmem.create ~first_obj_id:(c * stride)
            ~obj_id_limit:((c + 1) * stride) ()
        in
        (match checker with
        | Some ck -> Runtime.Dynamic.attach_client ck ~thread:c pmem
        | None -> ());
        let store = setup pmem in
        let share = (txs / clients) + if c < txs mod clients then 1 else 0 in
        (c, pmem, store, share))
      (List.init clients Fun.id)
  in
  let t0 = Deepmc.Clock.now () in
  ignore
    (Pool.map ~domains:clients ~chunk:1 pool
       (fun (c, _pmem, store, share) ->
         (* purpose-split stream: client c's requests must not alias
            another client's (or the fuzzer's delay schedules) when
            campaign seeds are themselves sequential *)
         let rng = Gen.stream seed (Gen.Client c) in
         for _ = 1 to share do
           op store rng ~client:c
         done)
       contexts);
  let elapsed_s = max 1e-9 (Deepmc.Clock.elapsed_s t0) in
  let pmems = List.map (fun (_, pm, _, _) -> pm) contexts in
  finish ~label ~txs ~clients ~checked ~checker ~pmems ~elapsed_s

(* Best of [repeats] runs: wall-clock noise (GC pauses, scheduler) only
   ever slows a run down, so the fastest run is the cleanest signal. *)
let measure ~label ?(repeats = 3) ?execution:_ ?(seed = default_seed)
    ~clients ~txs ~checked ~setup ~op () =
  let runs =
    List.init (max 1 repeats) (fun _ ->
        run_concurrent ~label ~seed ~clients ~txs ~checked ~setup ~op)
  in
  List.fold_left
    (fun best r -> if r.elapsed_s < best.elapsed_s then r else best)
    (List.hd runs) (List.tl runs)

(* Figure 12 data point: the same workload with and without the dynamic
   checker; overhead is the relative throughput loss. *)
type comparison = {
  baseline : result;
  with_checker : result;
  overhead_pct : float;
}

let compare_checked ~label ?seed ~clients ~txs ~setup ~op () =
  let baseline =
    measure ~label ?seed ~clients ~txs ~checked:false ~setup ~op ()
  in
  let with_checker =
    measure ~label ?seed ~clients ~txs ~checked:true ~setup ~op ()
  in
  let overhead_pct =
    100. *. (1. -. (with_checker.throughput /. baseline.throughput))
  in
  { baseline; with_checker; overhead_pct }

let pp_result ppf r =
  Fmt.pf ppf "%-28s %8d tx %2d clients %s: %10.0f tx/s (%.3f s)" r.label r.txs
    r.clients
    (if r.checked then "checked " else "baseline")
    r.throughput r.elapsed_s

let pp_comparison ppf c =
  Fmt.pf ppf "%-28s baseline %10.0f tx/s | DeepMC %10.0f tx/s | overhead %5.1f%%"
    c.baseline.label c.baseline.throughput c.with_checker.throughput
    c.overhead_pct
