(* dynamic-kv: each request is one batch of transactions from 2 client
   domains ([Harness.measure ~repeats:1], concurrent execution) under the
   epoch dynamic checker, rotating over the five memslap mixes and YCSB
   A-F. A YCSB batch has 4000 transactions and a memslap batch 8000: a
   YCSB store's set-up (2048 transactional inserts per client, checked
   too) costs about as much as 4000 memslap transactions, so every batch
   takes about as long and the latency percentiles do not fall into a gap
   between a fast and a slow cluster of mixes. In the traced run every
   request also runs its batch unchecked, with the same seed, for the
   baseline; which of the two goes first alternates. Only the checked
   batch is the request.

   Ground truth: every client runs its whole share of the batch (counted
   by the benchmark's own op wrapper), and these bug-free stores draw no
   dynamic warning. *)

module H = Workloads.Harness

let clients = 2

(* Per-client op counters, a cache line apart so the two domains never
   write one line. *)
let stride = 8

type mix = {
  label : string;
  txs : int;
  batch : checked:bool -> seed:int -> int array -> H.result;
}

let mix ~txs label setup run_op =
  {
    label;
    txs;
    batch =
      (fun ~checked ~seed counts ->
        H.measure ~label ~repeats:1 ~execution:H.Concurrent ~seed ~clients ~txs
          ~checked ~setup
          ~op:(fun st rng ~client ->
            counts.(client * stride) <- counts.(client * stride) + 1;
            run_op st rng ~client)
          ());
  }

let mixes =
  Array.of_list
    (List.map
       (fun (label, m) ->
         mix ~txs:8000 label Workloads.Memslap.setup (Workloads.Memslap.run_op m))
       Workloads.Memslap.mixes
    @ List.map
        (fun (label, m) ->
          mix ~txs:4000 label Workloads.Ycsb.setup (Workloads.Ycsb.run_op m))
        Workloads.Ycsb.mixes)

let run_batch m ~checked ~seed =
  let counts = Array.make (clients * stride) 0 in
  let r = m.batch ~checked ~seed counts in
  (r, Array.fold_left ( + ) 0 counts)

let oracle m ~checked (r, ran) =
  (if ran = m.txs then [] else [ Fmt.str "%d of %d transactions ran" ran m.txs ])
  @
  match r.H.dynamic with
  | None when checked -> [ "the dynamic checker did not run" ]
  | Some s when s.Runtime.Dynamic.warning_count > 0 ->
    [ Fmt.str "%d dynamic warnings" s.Runtime.Dynamic.warning_count ]
  | None | Some _ -> []

let note ~checked (r : H.result) =
  let tps = float_of_int r.H.txs /. r.H.elapsed_s in
  if checked then begin
    Layers.push "dynamic.checked_tx_per_s" tps;
    let per_tx n = float_of_int n /. float_of_int r.H.txs in
    Layers.add "pmem.stores_per_tx" (per_tx r.H.stores);
    Layers.add "pmem.flushes_per_tx" (per_tx r.H.flushes);
    Layers.add "pmem.fences_per_tx" (per_tx r.H.fences);
    match r.H.dynamic with
    | Some s ->
      Layers.add "dynamic.waw" (float_of_int s.Runtime.Dynamic.waw);
      Layers.add "dynamic.raw" (float_of_int s.Runtime.Dynamic.raw)
    | None -> ()
  end
  else Layers.push "dynamic.baseline_tx_per_s" tps

let setup ~seed ~traced =
  let batch_seed i = (seed * 1_000_003) + i in
  (* priming: one checked and one unchecked batch *)
  ignore (run_batch mixes.(0) ~checked:true ~seed:(batch_seed (-1)));
  ignore (run_batch mixes.(0) ~checked:false ~seed:(batch_seed (-1)));
  let baseline m i =
    let r, ran =
      Tracer.with_ "Harness.measure.baseline" (fun () ->
          run_batch m ~checked:false ~seed:(batch_seed i))
    in
    note ~checked:false r;
    oracle m ~checked:false (r, ran)
  in
  let run i =
    let m = mixes.(i mod Array.length mixes) in
    let before = if traced && i mod 2 = 1 then baseline m i else [] in
    let r =
      Workload.timed ~traced i (fun () ->
          if traced then
            Tracer.with_ "Harness.measure.checked" (fun () ->
                run_batch m ~checked:true ~seed:(batch_seed i))
          else run_batch m ~checked:true ~seed:(batch_seed i))
    in
    (match fst r with Ok (res, _) when traced -> note ~checked:true res | _ -> ());
    let after = if traced && i mod 2 = 0 then baseline m i else [] in
    let o = Workload.outcome ~input:m.label r (oracle m ~checked:true) in
    { o with Workload.failures = o.Workload.failures @ before @ after }
  in
  { Workload.run; verify = (fun () -> []) }

let workload = { Workload.name = "dynamic-kv"; domains = clients; setup }
