(* redis-benchmark-style load for the log-structured store: the default
   redis-benchmark command mix (SET, GET, INCR, and two list/set-style
   command stand-ins that append to the log). *)

type op = Set | Get | Incr | Lpush | Sadd

let mixes : (string * op Gen.mix) list =
  [
    ("redis-set", [ (Set, 100) ]);
    ("redis-get", [ (Get, 100) ]);
    ("redis-incr", [ (Incr, 100) ]);
    ("redis-lpush", [ (Lpush, 100) ]);
    ("redis-mixed", [ (Set, 30); (Get, 40); (Incr, 15); (Lpush, 10); (Sadd, 5) ]);
  ]

let keyspace = 2048

(* The log is a ring; a modest capacity keeps the working set small even
   with 50 concurrent client heaps, each holding its own log. *)
let setup pmem =
  let st = Logstore.create ~log_capacity:(1 lsl 15) pmem in
  for k = 1 to keyspace / 2 do
    Logstore.set st k k
  done;
  st

(* per-request compute of the modeled server (RESP parsing, reply
   building); Redis does more protocol work per command than memcached *)
let request_work = 10000

let run_op mix st rng ~client =
  ignore (Gen.simulate_work rng ~amount:request_work);
  let key = 1 + Gen.uniform rng ~keyspace in
  match Gen.pick rng mix with
  | Set -> Logstore.set st key (client + 1)
  | Get -> ignore (Logstore.get st key)
  | Incr -> ignore (Logstore.incr st key)
  | Lpush -> Logstore.set st (key lor 0x10000) client
  | Sadd -> Logstore.set st (key lor 0x20000) 1

let comparison ?seed ?(clients = 50) ?(txs = 100_000) (label, mix) =
  Harness.compare_checked ~label ?seed ~clients ~txs ~setup
    ~op:(fun st rng ~client -> run_op mix st rng ~client)
    ()
