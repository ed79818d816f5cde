(* Persistent domain pool.

   The analysis pipeline is embarrassingly parallel at several levels
   (programs of a corpus sweep, crash points of a crash-space sweep,
   analysis roots and function bodies inside one static check), but the
   old driver spawned-and-joined fresh domains on every [Parallel.map]
   call — domain creation is a milliseconds-scale operation, so batch
   jobs paid a per-call fork/join tax that dwarfed small work items.

   This pool is created once and reused for the life of the process:

   - Worker domains are spawned lazily (first submission) and then kept,
     parked on a condition variable between jobs.
   - A submission publishes a chunked task descriptor; parked workers
     wake and steal chunks from it via an atomic claim counter, and the
     submitting domain itself drains chunks too (helping), so a
     submission never waits for a parked worker to make progress.
   - Nested submissions from inside a worker are safe: the nested
     submitter helps drain its own descriptor and only ever blocks on
     chunks that some other domain is actively executing, so the
     wait-for graph cannot cycle.
   - If a task raises, the first exception wins: claiming stops, every
     in-flight chunk finishes, and the exception is re-raised at the
     submission point with its original backtrace. The pool itself
     survives and is reusable afterwards.

   The pool depends only on [Obs] (which sits below every project
   layer) so that both the analysis layer (per-function collection,
   per-root checking) and the core layer (corpus sweeps, crash sweeps)
   can share one instance. *)

(* Registry instruments. Per-chunk claim counts are always maintained
   in the per-domain records below (owner-only writes, one add per
   chunk); clock reads and labelled registry updates are gated on
   [Obs.enabled]. "Steals" counts every chunk claim from a submission
   descriptor, submitter claims included — on a one-core host the
   submitter is the only domain draining, and its claims are the same
   scheduling event. *)
let m_jobs = Obs.Metrics.counter "pool.jobs" ~desc:"parallel map submissions completed"

let m_steals =
  Obs.Metrics.counter "pool.steals"
    ~desc:"chunk claims from submission descriptors (submitter included)"

let m_queue_depth =
  Obs.Metrics.gauge "pool.queue_depth"
    ~desc:"high-water mark of submissions open to workers at once"

let m_chunk_ns =
  Obs.Metrics.histogram "pool.chunk_run_ns"
    ~desc:"per-chunk execution latency, nanoseconds"

let m_worker_busy =
  Obs.Metrics.counter "pool.worker_busy_ns"
    ~desc:"per-domain busy time in chunks, nanoseconds (labelled domain=N)"

let m_worker_claims =
  Obs.Metrics.counter "pool.worker_claims"
    ~desc:"per-domain chunk claims (labelled domain=N)"

let m_parks =
  Obs.Metrics.counter "pool.parks"
    ~desc:"worker blocking waits entered with no pending submissions"

type stats = {
  size : int;  (** target number of worker domains *)
  alive : int;  (** workers currently spawned *)
  spawned_total : int;  (** workers ever spawned (reuse indicator) *)
  jobs : int;  (** submissions completed *)
  chunks : int;  (** chunks executed across all jobs *)
}

type worker_stat = { domain : int; claims : int; busy_ns : int64; parks : int }

(* Per-domain accounting. Claims and parks are always counted
   (owner-only writes, cheap); busy_ns accrues only while telemetry is
   enabled, because it needs two clock reads per chunk. *)
type worker_rec = {
  wr_domain : int;
  wr_label : string;
  mutable wr_claims : int;
  mutable wr_busy_ns : int64;
  mutable wr_parks : int;
}

(* One parallel-map submission: a bag of [nchunks] chunks claimed via
   [next]. [inflight] counts claimed-but-unfinished chunks; it is
   incremented before the claim so a waiter can never observe
   "exhausted and idle" while a chunk is between claim and execution. *)
type desc = {
  run_chunk : int -> unit;
  nchunks : int;
  next : int Atomic.t;
  inflight : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  d_mutex : Mutex.t;
  d_cond : Condition.t; (* signaled as chunks complete *)
  mutable helpers : int; (* workers that joined; bounded by max_helpers *)
  max_helpers : int;
}

type t = {
  mutable target : int;
  mutable workers : unit Domain.t list;
  mutable pending : desc list; (* open submissions, FIFO *)
  mutable shutdown : bool;
  mutable spawned_total : int;
  mutable parked : int; (* workers blocked in Condition.wait right now *)
  q_mutex : Mutex.t;
  q_cond : Condition.t; (* signaled on submission / shutdown *)
  idle_cond : Condition.t; (* signaled as workers park / pending drains *)
  jobs_done : int Atomic.t;
  chunks_run : int Atomic.t;
  w_mutex : Mutex.t; (* guards worker_tbl lookups/inserts only *)
  worker_tbl : (int, worker_rec) Hashtbl.t;
}

let recommended_size () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

let exhausted d =
  Atomic.get d.next >= d.nchunks || Atomic.get d.failure <> None

let finished d = exhausted d && Atomic.get d.inflight = 0

let worker_rec pool =
  let id = (Domain.self () :> int) in
  Mutex.lock pool.w_mutex;
  let wr =
    match Hashtbl.find_opt pool.worker_tbl id with
    | Some wr -> wr
    | None ->
      let wr =
        {
          wr_domain = id;
          wr_label = "domain=" ^ string_of_int id;
          wr_claims = 0;
          wr_busy_ns = 0L;
          wr_parks = 0;
        }
      in
      Hashtbl.replace pool.worker_tbl id wr;
      wr
  in
  Mutex.unlock pool.w_mutex;
  wr

(* Claim and run chunks of [d] until it is exhausted. Runs on workers
   and on the submitting domain alike. *)
let drain pool d =
  let wr = worker_rec pool in
  let rec loop () =
    if Atomic.get d.failure <> None then ()
    else begin
      Atomic.incr d.inflight;
      let i = Atomic.fetch_and_add d.next 1 in
      if i >= d.nchunks then begin
        (* nothing claimed: undo and let waiters re-evaluate *)
        Atomic.decr d.inflight;
        Mutex.lock d.d_mutex;
        Condition.broadcast d.d_cond;
        Mutex.unlock d.d_mutex
      end
      else begin
        wr.wr_claims <- wr.wr_claims + 1;
        Obs.Metrics.incr m_steals;
        let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
        (match d.run_chunk i with
        | () -> ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set d.failure None (Some (e, bt))));
        if Obs.enabled () then begin
          let dt = Int64.sub (Obs.now_ns ()) t0 in
          wr.wr_busy_ns <- Int64.add wr.wr_busy_ns dt;
          Obs.Metrics.observe m_chunk_ns (Int64.to_int dt);
          Obs.Metrics.add_labelled m_worker_busy wr.wr_label (Int64.to_int dt);
          Obs.Metrics.add_labelled m_worker_claims wr.wr_label 1
        end;
        Atomic.incr pool.chunks_run;
        Atomic.decr d.inflight;
        Mutex.lock d.d_mutex;
        Condition.broadcast d.d_cond;
        Mutex.unlock d.d_mutex;
        loop ()
      end
    end
  in
  loop ()

let remove_pending pool d =
  Mutex.lock pool.q_mutex;
  pool.pending <- List.filter (fun d' -> d' != d) pool.pending;
  if pool.pending = [] then Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.q_mutex

let rec worker_loop pool =
  let wr = worker_rec pool in
  Mutex.lock pool.q_mutex;
  let rec get () =
    if pool.shutdown then None
    else begin
      pool.pending <- List.filter (fun d -> not (exhausted d)) pool.pending;
      match
        List.find_opt (fun d -> d.helpers < d.max_helpers) pool.pending
      with
      | Some d ->
        d.helpers <- d.helpers + 1;
        Some d
      | None ->
        (* Park: a blocking wait, not a spin — a resident daemon's
           worker domains consume no CPU between requests. [parked]
           lets [quiesce] observe full idleness. *)
        pool.parked <- pool.parked + 1;
        wr.wr_parks <- wr.wr_parks + 1;
        Obs.Metrics.incr m_parks;
        Condition.broadcast pool.idle_cond;
        Condition.wait pool.q_cond pool.q_mutex;
        pool.parked <- pool.parked - 1;
        get ()
    end
  in
  let claimed = get () in
  Mutex.unlock pool.q_mutex;
  match claimed with
  | None -> () (* shutdown: the domain exits *)
  | Some d ->
    drain pool d;
    remove_pending pool d;
    worker_loop pool

let create ?size () =
  let target = match size with Some n -> max 1 n | None -> recommended_size () in
  {
    target;
    workers = [];
    pending = [];
    shutdown = false;
    spawned_total = 0;
    parked = 0;
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    idle_cond = Condition.create ();
    jobs_done = Atomic.make 0;
    chunks_run = Atomic.make 0;
    w_mutex = Mutex.create ();
    worker_tbl = Hashtbl.create 8;
  }

(* Spawn missing workers, up to [target - 1]: the submitting domain is
   itself the remaining unit of parallelism. Called under no lock; the
   worker-list update is guarded. *)
let ensure_workers pool =
  Mutex.lock pool.q_mutex;
  let missing = pool.target - 1 - List.length pool.workers in
  if missing > 0 && not pool.shutdown then begin
    for _ = 1 to missing do
      pool.workers <- Domain.spawn (fun () -> worker_loop pool) :: pool.workers;
      pool.spawned_total <- pool.spawned_total + 1
    done
  end;
  Mutex.unlock pool.q_mutex

let shutdown pool =
  Mutex.lock pool.q_mutex;
  pool.shutdown <- true;
  Condition.broadcast pool.q_cond;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.q_mutex;
  List.iter Domain.join ws;
  Mutex.lock pool.q_mutex;
  pool.shutdown <- false;
  Mutex.unlock pool.q_mutex

let resize pool n =
  let n = max 1 n in
  if n <> pool.target then begin
    shutdown pool;
    pool.target <- n
  end

let size pool = pool.target

let stats pool =
  Mutex.lock pool.q_mutex;
  let alive = List.length pool.workers in
  let spawned_total = pool.spawned_total in
  Mutex.unlock pool.q_mutex;
  {
    size = pool.target;
    alive;
    spawned_total;
    jobs = Atomic.get pool.jobs_done;
    chunks = Atomic.get pool.chunks_run;
  }

(* Per-domain counters, sorted by domain id. Reads race with owner
   updates; each field is a single word, so values are merely slightly
   stale, never torn. *)
let worker_stats pool =
  Mutex.lock pool.w_mutex;
  let out =
    Hashtbl.fold
      (fun _ wr acc ->
        {
          domain = wr.wr_domain;
          claims = wr.wr_claims;
          busy_ns = wr.wr_busy_ns;
          parks = wr.wr_parks;
        }
        :: acc)
      pool.worker_tbl []
  in
  Mutex.unlock pool.w_mutex;
  List.sort (fun a b -> compare a.domain b.domain) out

(* Block until the pool is fully idle: no open submissions and every
   spawned worker parked in its blocking wait. A daemon calls this
   between requests to guarantee ~0% CPU at idle (and tests use it to
   assert the same). Spawned-but-not-yet-parked workers are waited
   for; an empty pool quiesces immediately. *)
let quiesce pool =
  Mutex.lock pool.q_mutex;
  while pool.pending <> [] || pool.parked < List.length pool.workers do
    Condition.wait pool.idle_cond pool.q_mutex
  done;
  Mutex.unlock pool.q_mutex

(* Parallel map preserving submission order. [domains] caps the number
   of domains cooperating on this job (submitter included); it defaults
   to the pool size. [chunk] is the number of consecutive items per
   claimed chunk (default: items spread ~4 chunks per cooperating
   domain, so stealing stays cheap but imbalanced items still
   rebalance). *)
let map ?domains ?chunk pool (f : 'a -> 'b) (items : 'a list) : 'b list =
  let n = List.length items in
  if n = 0 then []
  else begin
    let budget =
      match domains with
      | Some d -> max 1 (min d pool.target)
      | None -> pool.target
    in
    let budget = min budget n in
    let arr = Array.of_list items in
    let results : 'b option array = Array.make n None in
    let chunk_size =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (budget * 4))
    in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let d =
      {
        run_chunk =
          (fun i ->
            let lo = i * chunk_size in
            let hi = min n (lo + chunk_size) - 1 in
            for j = lo to hi do
              results.(j) <- Some (f arr.(j))
            done);
        nchunks;
        next = Atomic.make 0;
        inflight = Atomic.make 0;
        failure = Atomic.make None;
        d_mutex = Mutex.create ();
        d_cond = Condition.create ();
        helpers = 0;
        max_helpers = budget - 1;
      }
    in
    if d.max_helpers > 0 then begin
      ensure_workers pool;
      Mutex.lock pool.q_mutex;
      pool.pending <- pool.pending @ [ d ];
      if Obs.enabled () then
        Obs.Metrics.set_max m_queue_depth (List.length pool.pending);
      Condition.broadcast pool.q_cond;
      Mutex.unlock pool.q_mutex
    end;
    drain pool d;
    Mutex.lock d.d_mutex;
    while not (finished d) do
      Condition.wait d.d_cond d.d_mutex
    done;
    Mutex.unlock d.d_mutex;
    if d.max_helpers > 0 then remove_pending pool d;
    Atomic.incr pool.jobs_done;
    Obs.Metrics.incr m_jobs;
    match Atomic.get d.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.to_list
        (Array.map
           (function Some r -> r | None -> invalid_arg "Pool.map: hole")
           results)
  end

(* ------------------------------------------------------------------ *)
(* The process-wide default pool, shared by every analysis layer. *)

let default_mutex = Mutex.create ()
let default_pool : t option ref = ref None
let requested_size : int option ref = ref None

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create ?size:!requested_size () in
      default_pool := Some p;
      (* park-and-join on process exit so no domain outlives main *)
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock default_mutex;
  p

let set_default_size n =
  Mutex.lock default_mutex;
  requested_size := Some (max 1 n);
  let existing = !default_pool in
  Mutex.unlock default_mutex;
  match existing with Some p -> resize p (max 1 n) | None -> ()

let default_size () =
  match !requested_size with
  | Some n -> n
  | None -> (
    match !default_pool with Some p -> p.target | None -> recommended_size ())
