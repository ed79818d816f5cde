(* YCSB [7] for the NStore-like transactional store: the standard
   workload mixes A–F (E uses short scans). *)

type op = Update | Read | Insert | Scan | Rmw

let mixes : (string * op Gen.mix) list =
  [
    ("ycsb-a (50u/50r)", [ (Update, 50); (Read, 50) ]);
    ("ycsb-b (5u/95r)", [ (Update, 5); (Read, 95) ]);
    ("ycsb-c (100r)", [ (Read, 100) ]);
    ("ycsb-d (5i/95r)", [ (Insert, 5); (Read, 95) ]);
    ("ycsb-e (5i/95scan)", [ (Insert, 5); (Scan, 95) ]);
    ("ycsb-f (50rmw/50r)", [ (Rmw, 50); (Read, 50) ]);
  ]

let keyspace = 2048
let theta = 0.6 (* zipf-like skew *)

let setup pmem =
  let st = Txstore.create ~nrecords:(keyspace * 2) pmem in
  for k = 0 to keyspace - 1 do
    Txstore.insert st k k
  done;
  st

(* per-request compute of the modeled engine (query dispatch, record
   marshalling) *)
let request_work = 2700

let run_op mix st rng ~client =
  ignore (Gen.simulate_work rng ~amount:request_work);
  let key = Gen.skewed rng ~keyspace ~theta in
  match Gen.pick rng mix with
  | Update -> Txstore.update st key (client + 1)
  | Read -> ignore (Txstore.read st key)
  | Insert -> Txstore.insert st (Gen.uniform rng ~keyspace) client
  | Scan -> ignore (Txstore.scan st key 10)
  | Rmw -> Txstore.read_modify_write st key (fun v -> v + 1)

let comparison ?seed ?(clients = 4) ?(txs = 100_000) (label, mix) =
  Harness.compare_checked ~label ?seed ~clients ~txs ~setup
    ~op:(fun st rng ~client -> run_op mix st rng ~client)
    ()
