(** memslap-style load generator for the Memcached-like store: the five
    operation mixes of Figure 12. *)

type op = Update | Read | Insert | Rmw

val mixes : (string * op Gen.mix) list
val keyspace : int
val request_work : int
val setup : Runtime.Pmem.t -> Kvstore.t
val run_op : op Gen.mix -> Kvstore.t -> Gen.rng -> client:int -> unit

val comparison :
  ?seed:int ->
  ?clients:int -> ?txs:int -> string * op Gen.mix -> Harness.comparison
(** One Figure 12 Memcached data point (default 4 clients). *)
