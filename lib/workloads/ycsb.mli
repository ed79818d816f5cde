(** YCSB for the NStore-like transactional store: workloads A–F. *)

type op = Update | Read | Insert | Scan | Rmw

val mixes : (string * op Gen.mix) list
val keyspace : int
val theta : float
val request_work : int
val setup : Runtime.Pmem.t -> Txstore.t
val run_op : op Gen.mix -> Txstore.t -> Gen.rng -> client:int -> unit

val comparison :
  ?seed:int ->
  ?clients:int -> ?txs:int -> string * op Gen.mix -> Harness.comparison
(** One Figure 12 NStore data point (default 4 clients). *)
