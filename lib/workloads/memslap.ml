(* memslap-style load generator for the Memcached-like store: the five
   operation mixes of Figure 12 (Memcached-1 .. Memcached-5). *)

type op = Update | Read | Insert | Rmw

(* (1) 50% update / 50% read; (2) 5% update / 95% read; (3) 100% read;
   (4) 5% insert / 95% read; (5) 50% RMW / 50% read. *)
let mixes : (string * op Gen.mix) list =
  [
    ("memcached-1 (50u/50r)", [ (Update, 50); (Read, 50) ]);
    ("memcached-2 (5u/95r)", [ (Update, 5); (Read, 95) ]);
    ("memcached-3 (100r)", [ (Read, 100) ]);
    ("memcached-4 (5i/95r)", [ (Insert, 5); (Read, 95) ]);
    ("memcached-5 (50rmw/50r)", [ (Rmw, 50); (Read, 50) ]);
  ]

let keyspace = 2048

let setup pmem =
  let kv = Kvstore.create ~capacity:(keyspace * 2) pmem in
  (* preload half the keyspace so reads mostly hit *)
  for k = 1 to keyspace / 2 do
    ignore (Kvstore.set kv k (k * 3))
  done;
  kv

(* per-request compute of the modeled server (parse + hash + copy) *)
let request_work = 2500

let run_op mix kv rng ~client =
  ignore (Gen.simulate_work rng ~amount:request_work);
  let key = 1 + Gen.uniform rng ~keyspace in
  match Gen.pick rng mix with
  | Update -> ignore (Kvstore.set kv key (client + 1))
  | Read -> ignore (Kvstore.get kv key)
  | Insert -> ignore (Kvstore.set kv (1 + Gen.uniform rng ~keyspace) client)
  | Rmw -> ignore (Kvstore.rmw kv key (fun v -> v + 1))

(* One Figure 12 Memcached data point. *)
let comparison ?seed ?(clients = 4) ?(txs = 100_000) (label, mix) =
  Harness.compare_checked ~label ?seed ~clients ~txs ~setup
    ~op:(fun kv rng ~client -> run_op mix kv rng ~client)
    ()
