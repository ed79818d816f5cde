(** Measurement harness for the application benchmarks (Table 6 /
    Figure 12): run a fixed number of client transactions against a
    store on the NVM runtime, with or without the dynamic checker, and
    report throughput. *)

(** How the clients execute; [Concurrent] (the paper's setup) is the one
    mode: each client gets its own heap + store instance, built and
    driven on a pool domain, all observed by one checker through
    client-bound listeners; client heaps use disjoint object-id ranges
    so warnings are interleaving-independent. The type stays only
    because the benchmark passes [~execution:Concurrent]; it goes with
    the benchmark's next revision. *)
type execution = Concurrent

val default_seed : int
(** Seed used when [?seed] is omitted (the historical 0xC0FFEE). *)

type result = {
  label : string;
  txs : int;
  clients : int;
  elapsed_s : float;
  throughput : float;  (** transactions per second *)
  checked : bool;
  dynamic : Runtime.Dynamic.summary option;
  stores : int;
  loads : int;
  flushes : int;
  fences : int;
}

val measure :
  label:string ->
  ?repeats:int ->
  ?execution:execution ->
  ?seed:int ->
  clients:int ->
  txs:int ->
  checked:bool ->
  setup:(Runtime.Pmem.t -> 'st) ->
  op:('st -> Gen.rng -> client:int -> unit) ->
  unit ->
  result
(** Best of [repeats] runs (default 3): wall-clock noise only slows runs
    down, so the fastest run is the cleanest signal. [seed] drives every
    randomized choice the clients make (client [c] draws from the
    purpose-split stream [Gen.stream seed (Client c)]), so a run is
    reproducible end to end from the one value. [setup] runs once per
    client, on its own heap and on the client's pool domain, before the
    clock starts ([elapsed_s] covers the transactions only); neither
    [setup] nor [op] may share mutable state across clients. *)

type comparison = {
  baseline : result;
  with_checker : result;
  overhead_pct : float;
}

val compare_checked :
  label:string ->
  ?seed:int ->
  clients:int ->
  txs:int ->
  setup:(Runtime.Pmem.t -> 'st) ->
  op:('st -> Gen.rng -> client:int -> unit) ->
  unit ->
  comparison
(** One Figure 12 data point: {!measure} with and without the checker,
    [Concurrent], best of 3. *)

val pp_result : result Fmt.t
val pp_comparison : comparison Fmt.t
