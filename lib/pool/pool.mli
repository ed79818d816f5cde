(** Persistent work-stealing domain pool.

    A pool is created once and reused across submissions: worker domains
    are spawned lazily on the first parallel job and then parked between
    jobs, so repeated [map] calls pay no domain fork/join cost. Work is
    submitted as chunks that idle domains steal via an atomic claim
    counter; the submitting domain helps drain its own job, which makes
    nested submissions (a task that itself calls [map]) deadlock-free. *)

type t

type stats = {
  size : int;  (** target number of cooperating domains *)
  alive : int;  (** worker domains currently spawned *)
  spawned_total : int;  (** worker domains ever spawned (reuse indicator) *)
  jobs : int;  (** submissions completed *)
  chunks : int;  (** chunks executed across all jobs *)
}

type worker_stat = {
  domain : int;  (** Domain.self of the draining domain *)
  claims : int;  (** chunks claimed by this domain (always counted) *)
  busy_ns : int64;
      (** time spent inside chunks; accrues only while [Obs.enabled] is
          on (it costs two clock reads per chunk) *)
  parks : int;
      (** blocking waits this domain entered with no pending work
          (always counted) — a resident daemon's idle evidence *)
}

val recommended_size : unit -> int
(** [max 1 (min 8 (recommended_domain_count - 1))]. *)

val create : ?size:int -> unit -> t
(** A new pool targeting [size] cooperating domains (default
    {!recommended_size}). No domain is spawned until the first [map]
    that can use one. *)

val map : ?domains:int -> ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] applies [f] to every item, in parallel, and
    returns the results in submission order. [domains] caps the number
    of domains cooperating on this job (submitter included; clamped to
    the pool size; [~domains:1] runs entirely on the caller). [chunk]
    sets the number of consecutive items per stolen chunk. If any
    application raises, the first exception is re-raised here with its
    original backtrace once in-flight chunks settle; the pool remains
    usable. Safe to call from inside a pool task. *)

val size : t -> int
val resize : t -> int -> unit
(** Change the target domain count. Parks and joins existing workers;
    new ones are spawned lazily by the next job. *)

val shutdown : t -> unit
(** Join all parked workers. The pool stays usable: the next job
    respawns them. *)

val stats : t -> stats
(** Aggregate counters; kept as-is for existing callers. The same
    numbers (and more) flow through the [Obs] registry as
    [pool.jobs] / [pool.steals] / [pool.queue_depth] /
    [pool.chunk_run_ns] when telemetry is enabled. *)

val worker_stats : t -> worker_stat list
(** Per-domain claim/busy/park breakdown, sorted by domain id. Also
    exposed through the registry as [pool.worker_claims{domain=N}] and
    [pool.worker_busy_ns{domain=N}] while telemetry is enabled; parks
    additionally aggregate into the always-counted [pool.parks]. *)

val quiesce : t -> unit
(** Block until the pool is fully idle: no open submissions and every
    spawned worker parked in its blocking wait (consuming no CPU). An
    unspawned pool quiesces immediately. The daemon calls this between
    requests; tests use it to assert ~0% idle CPU via park counts. *)

val default : unit -> t
(** The process-wide shared pool (created on first use; joined in an
    [at_exit] hook). *)

val set_default_size : int -> unit
(** Set (or, if already created, resize) the default pool's target
    domain count — the CLI's [--domains] hook. *)

val default_size : unit -> int
