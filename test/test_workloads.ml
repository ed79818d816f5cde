(* Tests for the application substrates: the generator, the three
   stores (functional behaviour and persistence discipline), and the
   measurement harness. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_gen_deterministic () =
  let a = Workloads.Gen.rng 42 and b = Workloads.Gen.rng 42 in
  let seq r = List.init 20 (fun _ -> Workloads.Gen.next_int r 1000) in
  check Alcotest.(list int) "same seed, same sequence" (seq a) (seq b)

let test_gen_bounds () =
  let r = Workloads.Gen.rng 1 in
  for _ = 1 to 1000 do
    let n = Workloads.Gen.uniform r ~keyspace:17 in
    if n < 0 || n >= 17 then Alcotest.fail "out of bounds"
  done

let test_gen_skew () =
  let r = Workloads.Gen.rng 7 in
  let hits = Array.make 2 0 in
  for _ = 1 to 2000 do
    let k = Workloads.Gen.skewed r ~keyspace:1024 ~theta:0.8 in
    if k < 512 then hits.(0) <- hits.(0) + 1 else hits.(1) <- hits.(1) + 1
  done;
  check Alcotest.bool "skew favours low keys" true (hits.(0) > hits.(1))

let test_gen_mix_pick () =
  let r = Workloads.Gen.rng 3 in
  let mix = [ (`A, 90); (`B, 10) ] in
  let a = ref 0 in
  for _ = 1 to 1000 do
    if Workloads.Gen.pick r mix = `A then incr a
  done;
  check Alcotest.bool "weights respected" true (!a > 700)

(* ------------------------------------------------------------------ *)
(* Kvstore *)

let test_kvstore_semantics () =
  let pmem = Runtime.Pmem.create () in
  let kv = Workloads.Kvstore.create ~capacity:64 pmem in
  check Alcotest.bool "set" true (Workloads.Kvstore.set kv 1 10);
  check Alcotest.bool "set2" true (Workloads.Kvstore.set kv 2 20);
  check Alcotest.(option int) "get" (Some 10) (Workloads.Kvstore.get kv 1);
  check Alcotest.(option int) "get missing" None (Workloads.Kvstore.get kv 99);
  ignore (Workloads.Kvstore.set kv 1 11);
  check Alcotest.(option int) "overwrite" (Some 11) (Workloads.Kvstore.get kv 1);
  check Alcotest.int "size counts distinct keys" 2 (Workloads.Kvstore.size kv);
  check Alcotest.bool "delete" true (Workloads.Kvstore.delete kv 1);
  check Alcotest.(option int) "deleted" None (Workloads.Kvstore.get kv 1);
  check Alcotest.bool "rmw" true (Workloads.Kvstore.rmw kv 2 (fun v -> v + 5));
  check Alcotest.(option int) "rmw result" (Some 25) (Workloads.Kvstore.get kv 2)

let test_kvstore_collisions () =
  let pmem = Runtime.Pmem.create () in
  let kv = Workloads.Kvstore.create ~capacity:8 pmem in
  (* more keys than the hash spreads cleanly: linear probing must keep
     them all retrievable *)
  for k = 1 to 6 do
    ignore (Workloads.Kvstore.set kv k (k * 100))
  done;
  for k = 1 to 6 do
    check Alcotest.(option int) (Fmt.str "key %d" k) (Some (k * 100))
      (Workloads.Kvstore.get kv k)
  done

let test_kvstore_updates_are_durable () =
  let pmem = Runtime.Pmem.create () in
  let kv = Workloads.Kvstore.create ~capacity:16 pmem in
  ignore (Workloads.Kvstore.set kv 5 50);
  (* a mutation completes with no volatile persistent state left *)
  check Alcotest.int "no volatile slots after set" 0
    (Runtime.Pmem.volatile_slot_count pmem)

let test_kvstore_full () =
  let pmem = Runtime.Pmem.create () in
  let kv = Workloads.Kvstore.create ~capacity:2 pmem in
  ignore (Workloads.Kvstore.set kv 1 1);
  ignore (Workloads.Kvstore.set kv 2 2);
  check Alcotest.bool "table full rejects" false (Workloads.Kvstore.set kv 3 3)

(* ------------------------------------------------------------------ *)
(* Logstore *)

let test_logstore_recovery () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Logstore.create ~log_capacity:64 pmem in
  for k = 1 to 5 do
    Workloads.Logstore.set st k (k * 2)
  done;
  check Alcotest.int "entries" 5 (Workloads.Logstore.entries st);
  let recovered = Workloads.Logstore.recover st in
  check Alcotest.int "all entries durable" 5 recovered;
  check Alcotest.(option int) "value after recovery" (Some 6)
    (Workloads.Logstore.get st 3)

let test_logstore_incr () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Logstore.create ~log_capacity:64 pmem in
  check Alcotest.int "incr from empty" 1 (Workloads.Logstore.incr st 9);
  check Alcotest.int "incr again" 2 (Workloads.Logstore.incr st 9)

let test_logstore_last_write_wins_on_recovery () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Logstore.create ~log_capacity:64 pmem in
  Workloads.Logstore.set st 1 10;
  Workloads.Logstore.set st 1 20;
  ignore (Workloads.Logstore.recover st);
  check Alcotest.(option int) "latest value" (Some 20) (Workloads.Logstore.get st 1)

(* ------------------------------------------------------------------ *)
(* Txstore *)

let test_txstore_semantics () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Txstore.create ~nrecords:32 pmem in
  Workloads.Txstore.insert st 3 30;
  check Alcotest.int "read after insert" 30 (Workloads.Txstore.read st 3);
  Workloads.Txstore.update st 3 31;
  check Alcotest.int "read after update" 31 (Workloads.Txstore.read st 3);
  Workloads.Txstore.read_modify_write st 3 (fun v -> v + 9);
  check Alcotest.int "rmw" 40 (Workloads.Txstore.read st 3)

let test_txstore_scan () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Txstore.create ~nrecords:32 pmem in
  for k = 0 to 9 do
    Workloads.Txstore.insert st k 1
  done;
  check Alcotest.int "scan sums" 5 (Workloads.Txstore.scan st 0 5)

let test_txstore_updates_durable () =
  let pmem = Runtime.Pmem.create () in
  let st = Workloads.Txstore.create ~nrecords:8 pmem in
  Workloads.Txstore.insert st 1 7;
  check Alcotest.int "transactional insert leaves nothing volatile" 0
    (Runtime.Pmem.volatile_slot_count pmem)

(* ------------------------------------------------------------------ *)
(* Harness *)

let test_harness_measures () =
  let r =
    Workloads.Harness.measure ~label:"t" ~clients:2 ~txs:500 ~checked:false
      ~repeats:1
      ~setup:(fun pmem -> Workloads.Kvstore.create ~capacity:256 pmem)
      ~op:(fun kv rng ~client ->
        ignore (Workloads.Kvstore.set kv (Workloads.Gen.uniform rng ~keyspace:100) client))
      ()
  in
  check Alcotest.int "txs recorded" 500 r.Workloads.Harness.txs;
  check Alcotest.bool "throughput positive" true (r.Workloads.Harness.throughput > 0.);
  check Alcotest.bool "stores counted" true (r.Workloads.Harness.stores > 0)

let test_harness_checked_run_attaches_dynamic () =
  let r =
    Workloads.Harness.measure ~label:"t" ~clients:2 ~txs:200 ~checked:true
      ~repeats:1
      ~setup:(fun pmem -> Workloads.Kvstore.create ~capacity:256 pmem)
      ~op:(fun kv rng ~client ->
        ignore (Workloads.Kvstore.set kv (Workloads.Gen.uniform rng ~keyspace:50) client))
      ()
  in
  match r.Workloads.Harness.dynamic with
  | None -> Alcotest.fail "dynamic summary missing"
  | Some s ->
    check Alcotest.bool "cells tracked" true (s.Runtime.Dynamic.tracked_cells > 0);
    check Alcotest.int "no races in well-fenced store" 0 s.Runtime.Dynamic.waw

(* Concurrent mode gives each client its own heap from a disjoint
   object-id range; the full transaction count is still executed and the
   per-client stores stay consistent. *)
let test_harness_concurrent_per_client_heaps () =
  let txs_run = Atomic.make 0 in
  let r =
    Workloads.Harness.measure ~label:"t" ~execution:Workloads.Harness.Concurrent
      ~clients:3 ~txs:100 ~checked:true ~repeats:1
      ~setup:(fun pmem -> Workloads.Kvstore.create ~capacity:256 pmem)
      ~op:(fun kv rng ~client ->
        Atomic.incr txs_run;
        ignore
          (Workloads.Kvstore.set kv
             (Workloads.Gen.uniform rng ~keyspace:50)
             client))
      ()
  in
  check Alcotest.int "every transaction executed" 100 (Atomic.get txs_run);
  check Alcotest.int "3 clients" 3 r.Workloads.Harness.clients;
  (match r.Workloads.Harness.dynamic with
  | None -> Alcotest.fail "dynamic summary missing"
  | Some s ->
    check Alcotest.bool "cells tracked" true
      (s.Runtime.Dynamic.tracked_cells > 0);
    check Alcotest.int "well-fenced stores race-free" 0 s.Runtime.Dynamic.waw);
  check Alcotest.bool "stores counted across heaps" true
    (r.Workloads.Harness.stores > 0)

(* Client set-up runs on the client domains: a checked concurrent run
   gives the same checker summary and the same Pmem counts on pools of 1
   and 2 domains, and both equal what serial set-up on the submitting
   domain read (pinned). *)
let test_harness_pool_size_invariant () =
  let run (label, setup, op) =
    let r =
      Workloads.Harness.measure ~label ~repeats:1
        ~execution:Workloads.Harness.Concurrent ~clients:2 ~txs:2000
        ~checked:true ~setup ~op ()
    in
    match r.Workloads.Harness.dynamic with
    | None -> Alcotest.fail "dynamic summary missing"
    | Some d ->
      ( label,
        [ d.Runtime.Dynamic.waw; d.raw; d.unflushed; d.redundant;
          d.tracked_cells; d.warning_count; d.dropped;
          r.Workloads.Harness.stores; r.loads; r.flushes; r.fences ] )
  in
  let memslap =
    let label, m = List.hd Workloads.Memslap.mixes in
    (label, Workloads.Memslap.setup, Workloads.Memslap.run_op m)
  and ycsb =
    let label, m = List.hd Workloads.Ycsb.mixes in
    (label, Workloads.Ycsb.setup, Workloads.Ycsb.run_op m)
  in
  let sweep domains =
    Pool.set_default_size domains;
    [ run memslap; run ycsb ]
  in
  let saved = Pool.default_size () in
  let one, two =
    Fun.protect
      ~finally:(fun () -> Pool.set_default_size saved)
      (fun () -> (sweep 1, sweep 2))
  in
  (* waw, raw, unflushed, redundant, tracked cells, warnings, dropped;
     stores, loads, flushes, fences *)
  let pinned =
    [
      ( "memcached-1 (50u/50r)",
        [ 0; 0; 0; 0; 5002; 0; 0; 6056; 8645; 3028; 3028 ] );
      ("ycsb-a (50u/50r)", [ 0; 0; 0; 0; 16384; 0; 0; 17397; 987; 5109; 5109 ]);
    ]
  in
  let counts = Alcotest.(list (pair string (list int))) in
  check counts "1 domain" pinned one;
  check counts "2 domains" pinned two

let test_mixes_well_formed () =
  let weights_positive mix =
    List.for_all (fun (_, w) -> w > 0) mix
  in
  List.iter
    (fun (_, m) ->
      if not (weights_positive m) then Alcotest.fail "bad memslap mix")
    Workloads.Memslap.mixes;
  List.iter
    (fun (_, m) ->
      if not (weights_positive m) then Alcotest.fail "bad redis mix")
    Workloads.Redis_bench.mixes;
  List.iter
    (fun (_, m) -> if not (weights_positive m) then Alcotest.fail "bad ycsb mix")
    Workloads.Ycsb.mixes;
  check Alcotest.int "5 memcached mixes (Fig. 12)" 5
    (List.length Workloads.Memslap.mixes);
  check Alcotest.int "6 YCSB mixes" 6 (List.length Workloads.Ycsb.mixes)

let suite =
  [
    tc "gen: deterministic" `Quick test_gen_deterministic;
    tc "gen: bounds" `Quick test_gen_bounds;
    tc "gen: zipf-like skew" `Quick test_gen_skew;
    tc "gen: weighted pick" `Quick test_gen_mix_pick;
    tc "kvstore: semantics" `Quick test_kvstore_semantics;
    tc "kvstore: probing under collisions" `Quick test_kvstore_collisions;
    tc "kvstore: durable updates" `Quick test_kvstore_updates_are_durable;
    tc "kvstore: full table" `Quick test_kvstore_full;
    tc "logstore: crash recovery" `Quick test_logstore_recovery;
    tc "logstore: incr" `Quick test_logstore_incr;
    tc "logstore: last write wins" `Quick
      test_logstore_last_write_wins_on_recovery;
    tc "txstore: semantics" `Quick test_txstore_semantics;
    tc "txstore: scan" `Quick test_txstore_scan;
    tc "txstore: durable transactions" `Quick test_txstore_updates_durable;
    tc "harness: measurement" `Quick test_harness_measures;
    tc "harness: dynamic attachment" `Quick
      test_harness_checked_run_attaches_dynamic;
    tc "harness: concurrent per-client heaps" `Quick
      test_harness_concurrent_per_client_heaps;
    tc "harness: pool size does not move counts" `Quick
      test_harness_pool_size_invariant;
    tc "benchmark mixes well-formed" `Quick test_mixes_well_formed;
  ]
