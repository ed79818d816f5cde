(** redis-benchmark-style load for the log-structured store: the default
    command mix (SET, GET, INCR, plus list/set-style stand-ins). *)

type op = Set | Get | Incr | Lpush | Sadd

val mixes : (string * op Gen.mix) list
val keyspace : int
val request_work : int
val setup : Runtime.Pmem.t -> Logstore.t
val run_op : op Gen.mix -> Logstore.t -> Gen.rng -> client:int -> unit

val comparison :
  ?seed:int ->
  ?clients:int -> ?txs:int -> string * op Gen.mix -> Harness.comparison
(** One Figure 12 Redis data point (default 50 clients). *)
