(* The dynamic checker (§4.4): online analysis of epoch- and strand-
   annotated NVM programs.

   It attaches to a [Pmem.t] as a listener and

   - tracks writes/reads to persistent slots inside annotated regions in
     a shadow segment and reports WAW and RAW races between concurrent
     strands (happens-before detection; persist barriers are the
     synchronization points);
   - reports flushes that wrote back no dirty data: never-written ranges
     as writing back unmodified data, ranges re-flushed inside a
     transaction as persisting the same object twice, and other clean
     re-flushes as redundant write-backs;
   - at each epoch boundary, reports writes of the closing epoch that
     are still volatile (dirty, un-fenced) — the runtime complement of
     the static unflushed-write rule.

   Only accesses inside annotated regions are tracked (the paper's key
   overhead reduction over vanilla ThreadSanitizer), so cost scales with
   the persistent write/read ratio of the workload.

   Concurrency: all per-client state — the open region, the epoch write
   log, the transaction depth, the warning buffer, the race counters —
   lives in [thread_state], one per client, and every attached heap gets
   its own shadow segment, held by that heap's listener. A listener
   obtained through {!attach_client} is bound to its client's state and
   its heap's segment, so listeners firing on different domains never
   touch each other's state; the only shared structures are the atomic
   barrier counter and the atomic stored-warning counter that enforces
   the global cap. Warnings are aggregated (and deterministically
   sorted) at summary time. The [set_thread]/[attach] interface serves
   clients that share one heap on one domain: the driver's in-order
   clients and the fuzzer's coroutines. *)

type region = No_region | In_epoch | In_strand of int

type thread_state = {
  thread_id : int;
  mutable region : region;
  mutable begin_fence : int; (* barrier count when the region began *)
  mutable epoch_writes : (Pmem.addr * Nvmir.Loc.t) list;
      (* writes of the open epoch, with their source locations *)
  mutable tx_depth : int;
      (* transactions are per-client: a client inside its own
         transaction must not change how another client's flushes are
         classified *)
  mutable warnings : Analysis.Warning.t list; (* newest first *)
  mutable warning_count : int; (* length of [warnings], kept explicit *)
  mutable dropped : int;
  mutable waw : int;
  mutable raw : int;
  mutable unflushed : int;
  mutable redundant : int;
  mutable pmem : Pmem.t option;
      (* the heap this client's listener is bound to, for epoch-end
         volatility queries; [None] falls back to the checker-wide
         attachment *)
}

type t = {
  model : Analysis.Model.t;
  max_warnings : int;
  threads : (int, thread_state) Hashtbl.t;
  threads_lock : Mutex.t; (* guards [threads]; state creation only *)
  mutable current : thread_state; (* single-domain interleaved replay *)
  fence_count : int Atomic.t; (* global persist-barrier counter *)
  stored : int Atomic.t; (* warnings stored across all threads *)
  mutable default_pmem : Pmem.t option;
  ranges_lock : Mutex.t; (* guards [ranges] and [segments] *)
  mutable ranges : (int * int option) list;
      (* object-id windows of every attached heap; warnings name objects
         by id, so two clients' [obj5] would read as one object and
         dedup into one warning: attachment rejects overlaps up front *)
  mutable segments : Shadow.t list;
      (* every attached heap's shadow segment, summed by [summary] *)
}

let fresh_thread id =
  {
    thread_id = id;
    region = No_region;
    begin_fence = 0;
    epoch_writes = [];
    tx_depth = 0;
    warnings = [];
    warning_count = 0;
    dropped = 0;
    waw = 0;
    raw = 0;
    unflushed = 0;
    redundant = 0;
    pmem = None;
  }

let create ?(max_warnings = 10_000) ~model () =
  let t0 = fresh_thread 0 in
  let threads = Hashtbl.create 8 in
  Hashtbl.replace threads 0 t0;
  {
    model;
    max_warnings;
    threads;
    threads_lock = Mutex.create ();
    current = t0;
    fence_count = Atomic.make 0;
    stored = Atomic.make 0;
    default_pmem = None;
    ranges_lock = Mutex.create ();
    ranges = [];
    segments = [];
  }

let thread t id =
  Mutex.lock t.threads_lock;
  let ts =
    match Hashtbl.find_opt t.threads id with
    | Some ts -> ts
    | None ->
      let ts = fresh_thread id in
      Hashtbl.replace t.threads id ts;
      ts
  in
  Mutex.unlock t.threads_lock;
  ts

(* Interleaved multi-client replay switches the active thread before
   each operation; single-threaded IR programs never call this. *)
let set_thread t id =
  if t.current.thread_id <> id then t.current <- thread t id

let thread_states t =
  Mutex.lock t.threads_lock;
  let ts = Hashtbl.fold (fun _ ts acc -> ts :: acc) t.threads [] in
  Mutex.unlock t.threads_lock;
  List.sort (fun a b -> Int.compare a.thread_id b.thread_id) ts

(* Aggregated warnings, deterministically ordered (location, then rule,
   then message) so concurrent executions report byte-for-byte the same
   output as the sequential engine. *)
let warnings t =
  List.concat_map (fun ts -> List.rev ts.warnings) (thread_states t)
  |> List.stable_sort (fun (a : Analysis.Warning.t) (b : Analysis.Warning.t) ->
         match Nvmir.Loc.compare a.Analysis.Warning.loc b.Analysis.Warning.loc with
         | 0 -> (
           match
             String.compare
               (Analysis.Warning.rule_name a.Analysis.Warning.rule)
               (Analysis.Warning.rule_name b.Analysis.Warning.rule)
           with
           | 0 ->
             String.compare a.Analysis.Warning.message b.Analysis.Warning.message
           | c -> c)
         | c -> c)

(* The cap is global across threads: claim a stored slot with one
   fetch-and-add (O(1), where the old implementation recomputed
   [List.length] of the buffer on every warning) and roll back when the
   cap was already reached. *)
let strand_of_region ts =
  match ts.region with
  | In_strand n -> Some n
  | In_epoch -> Some (-1 - ts.thread_id) (* epochs race only across threads *)
  | No_region -> None

(* [transition] describes the shadow-state step that tripped the check;
   it is only forced when witness capture is enabled, so the disabled
   path allocates nothing beyond the warning itself. *)
let add_warning t ts ?transition ~rule ~loc ~fname message =
  if Atomic.fetch_and_add t.stored 1 >= t.max_warnings then begin
    Atomic.decr t.stored;
    ts.dropped <- ts.dropped + 1
  end
  else begin
    let witness =
      if Analysis.Witness.enabled () then
        Some
          (Analysis.Witness.Dynamic
             {
               d_transition =
                 (match transition with Some f -> f () | None -> message);
               d_strand =
                 (match strand_of_region ts with
                 | Some s -> s
                 | None -> ts.thread_id);
               d_fences = Atomic.get t.fence_count;
             })
      else None
    in
    ts.warnings <-
      Analysis.Warning.make ~origin:Analysis.Warning.Dynamic ?witness ~rule
        ~model:t.model ~loc ~fname message
      :: ts.warnings;
    ts.warning_count <- ts.warning_count + 1
  end

let m_waw_checks =
  Obs.Metrics.counter "dynamic.waw_checks"
    ~desc:"tracked writes checked for WAW/RAW conflicts"

let m_raw_checks =
  Obs.Metrics.counter "dynamic.raw_checks"
    ~desc:"tracked reads checked for RAW conflicts"

let on_write t sh ts addr loc =
  match strand_of_region ts with
  | None -> ()
  | Some strand ->
    Obs.Metrics.incr m_waw_checks;
    (* epoch-boundary volatility reporting only applies to epochs;
       strand regions defer barriers by design *)
    if ts.region = In_epoch then
      ts.epoch_writes <- (addr, loc) :: ts.epoch_writes;
    let access =
      { Shadow.strand; fence_at = Atomic.get t.fence_count; loc }
    in
    let conflicts =
      Shadow.record_write sh ~obj_id:addr.Pmem.obj_id
        ~slot:addr.Pmem.slot ~begin_fence:ts.begin_fence access
    in
    List.iter
      (fun c ->
        match c with
        | `Waw (w : Shadow.access) ->
          ts.waw <- ts.waw + 1;
          add_warning t ts
            ~transition:(fun () ->
              Fmt.str
                "shadow obj%d[%d]: written(strand %d, fence %d) -> \
                 written(strand %d, fence %d) with no ordering barrier"
                addr.Pmem.obj_id addr.Pmem.slot w.Shadow.strand
                w.Shadow.fence_at strand
                (Atomic.get t.fence_count))
            ~rule:Analysis.Warning.Strand_dependence ~loc
            ~fname:"<runtime>"
            (Fmt.str
               "WAW race: strands %d and %d both write obj%d[%d] without an \
                ordering barrier (previous write at %a)"
               w.Shadow.strand strand addr.Pmem.obj_id addr.Pmem.slot
               Nvmir.Loc.pp w.Shadow.loc)
        | `Raw (r : Shadow.access) ->
          ts.raw <- ts.raw + 1;
          add_warning t ts
            ~transition:(fun () ->
              Fmt.str
                "shadow obj%d[%d]: read(strand %d, fence %d) -> \
                 written(strand %d, fence %d) while the read is live"
                addr.Pmem.obj_id addr.Pmem.slot r.Shadow.strand
                r.Shadow.fence_at strand
                (Atomic.get t.fence_count))
            ~rule:Analysis.Warning.Strand_dependence ~loc
            ~fname:"<runtime>"
            (Fmt.str
               "RAW race: strand %d reads obj%d[%d] concurrently with strand \
                %d's write (read at %a)"
               r.Shadow.strand addr.Pmem.obj_id addr.Pmem.slot strand
               Nvmir.Loc.pp r.Shadow.loc))
      conflicts

let on_read t sh ts addr loc =
  match strand_of_region ts with
  | None -> ()
  | Some strand -> (
    Obs.Metrics.incr m_raw_checks;
    let access =
      { Shadow.strand; fence_at = Atomic.get t.fence_count; loc }
    in
    match
      Shadow.record_read sh ~obj_id:addr.Pmem.obj_id ~slot:addr.Pmem.slot
        ~begin_fence:ts.begin_fence access
    with
    | Some (`Raw w) ->
      ts.raw <- ts.raw + 1;
      add_warning t ts
        ~transition:(fun () ->
          Fmt.str
            "shadow obj%d[%d]: written(strand %d, fence %d) -> read(strand \
             %d, fence %d) before any ordering barrier"
            addr.Pmem.obj_id addr.Pmem.slot w.Shadow.strand w.Shadow.fence_at
            strand
            (Atomic.get t.fence_count))
        ~rule:Analysis.Warning.Strand_dependence ~loc
        ~fname:"<runtime>"
        (Fmt.str
           "RAW race: read of obj%d[%d] is concurrent with strand %d's write \
            at %a"
           addr.Pmem.obj_id addr.Pmem.slot w.Shadow.strand Nvmir.Loc.pp
           w.Shadow.loc)
    | None -> ())

(* A flush that found no dirty slot is redundant work: classify it by
   whether the range was ever written inside a tracked region (multiple
   flushes / persist-same-in-tx) or never written at all (writing back
   unmodified data). *)
let on_flush t sh ts ~obj_id ~first_slot ~nslots ~dirty loc =
  match strand_of_region ts with
  | None -> ()
  | Some _ ->
    if not dirty then begin
      ts.redundant <- ts.redundant + 1;
      let rec ever i =
        i < nslots
        && (Shadow.ever_written sh ~obj_id ~slot:(first_slot + i)
           || ever (i + 1))
      in
      if not (ever 0) then
        add_warning t ts ~rule:Analysis.Warning.Flush_unmodified ~loc
          ~fname:"<runtime>"
          (Fmt.str
             "flush of obj%d[%d..%d] writes back data that was never modified"
             obj_id first_slot
             (first_slot + nslots - 1))
      else if ts.tx_depth > 0 then
        add_warning t ts ~rule:Analysis.Warning.Persist_same_object_in_tx ~loc
          ~fname:"<runtime>"
          (Fmt.str
             "obj%d[%d..%d] persisted again within the same transaction with \
              no intervening modification"
             obj_id first_slot
             (first_slot + nslots - 1))
      else
        add_warning t ts ~rule:Analysis.Warning.Multiple_flushes ~loc
          ~fname:"<runtime>"
          (Fmt.str
             "redundant write-back of obj%d[%d..%d]: already flushed and \
              unmodified since"
             obj_id first_slot
             (first_slot + nslots - 1))
    end

let on_fence t _ts _loc = Atomic.incr t.fence_count

let on_strand_begin t ts n _loc =
  ts.region <- In_strand n;
  ts.begin_fence <- Atomic.get t.fence_count

let on_strand_end _t ts n _loc =
  ignore n;
  ts.region <- No_region

let flush_epoch_report t ts _loc =
  match (ts.pmem, t.default_pmem) with
  | None, None -> ts.epoch_writes <- []
  | Some pm, _ | None, Some pm ->
    (* epochs are short (a handful of writes), so iterate directly *)
    let still_volatile =
      List.filter (fun (addr, _) -> Pmem.slot_state pm addr <> Pmem.Clean)
        ts.epoch_writes
    in
    List.iter
      (fun ((addr : Pmem.addr), wloc) ->
        ts.unflushed <- ts.unflushed + 1;
        add_warning t ts
          ~transition:(fun () ->
            Fmt.str
              "shadow obj%d[%d]: dirty when the epoch boundary closed (write \
               never reached NVM)"
              addr.Pmem.obj_id addr.Pmem.slot)
          ~rule:Analysis.Warning.Unflushed_write ~loc:wloc
          ~fname:"<runtime>"
          (Fmt.str
             "epoch ends while the write to obj%d[%d] is still volatile; a \
              crash here loses it"
             addr.Pmem.obj_id addr.Pmem.slot))
      still_volatile;
    ts.epoch_writes <- []

let on_epoch_begin t ts _loc =
  ts.region <- In_epoch;
  ts.epoch_writes <- [];
  ts.begin_fence <- Atomic.get t.fence_count

let on_epoch_end t ts loc =
  flush_epoch_report t ts loc;
  ts.region <- No_region

(* Warnings name a slot by object id, so two heaps handing out the same
   object ids under one checker would make client A's [obj5] and client
   B's read as one object, and the driver's dedup would fold their
   warnings into one. Reject the overlap at attachment time instead.
   Windows are [first, limit) with [None] = unbounded. A heap that
   passes gets its own shadow segment. *)
let register_range t pm =
  let first, limit = Pmem.id_range pm in
  let below a = function None -> true | Some lim -> a < lim in
  let overlaps (first', limit') = below first limit' && below first' limit in
  Mutex.lock t.ranges_lock;
  let clash = List.find_opt overlaps t.ranges in
  let sh = Shadow.create ~obj_size:(Pmem.obj_size pm) in
  (match clash with
  | None ->
    t.ranges <- (first, limit) :: t.ranges;
    t.segments <- sh :: t.segments
  | Some _ -> ());
  Mutex.unlock t.ranges_lock;
  match clash with
  | None -> sh
  | Some (first', limit') ->
    let pp_lim ppf = function
      | None -> Fmt.string ppf "inf"
      | Some l -> Fmt.int ppf l
    in
    invalid_arg
      (Fmt.str
         "Dynamic.attach: heap object-id window [%d, %a) overlaps an \
          already-attached heap's [%d, %a); give each client heap a \
          disjoint ?first_obj_id/?obj_id_limit window"
         first pp_lim limit first' pp_lim limit')

(* The checker's listener for heap [pm], once [register_range] accepts
   it, with [state ()] the thread state an event is attributed to. *)
let listener_of t pm state : Pmem.listener =
  let sh = register_range t pm in
  {
    Pmem.null_listener with
    Pmem.on_write = (fun addr loc -> on_write t sh (state ()) addr loc);
    on_read = (fun addr loc -> on_read t sh (state ()) addr loc);
    on_flush =
      (fun ~obj_id ~first_slot ~nslots ~dirty loc ->
        on_flush t sh (state ()) ~obj_id ~first_slot ~nslots ~dirty loc);
    on_fence = (fun loc -> on_fence t (state ()) loc);
    on_tx_begin =
      (fun _ ->
        let ts = state () in
        ts.tx_depth <- ts.tx_depth + 1);
    on_tx_end =
      (fun _ ->
        let ts = state () in
        ts.tx_depth <- max 0 (ts.tx_depth - 1));
    on_strand_begin = (fun n loc -> on_strand_begin t (state ()) n loc);
    on_strand_end = (fun n loc -> on_strand_end t (state ()) n loc);
    on_epoch_begin = (fun loc -> on_epoch_begin t (state ()) loc);
    on_epoch_end = (fun loc -> on_epoch_end t (state ()) loc);
  }

(* Attach the checker to a heap; subsequent operations are monitored,
   attributed via [set_thread]. *)
let attach t pm =
  let l = listener_of t pm (fun () -> t.current) in
  t.default_pmem <- Some pm;
  Pmem.add_listener pm l

(* Attach a client-bound listener: every event of [pm] is attributed to
   [thread], with no shared mutable attribution state — the heap may be
   driven from its own domain. *)
let attach_client t ~thread:id pm =
  let ts = thread t id in
  let l = listener_of t pm (fun () -> ts) in
  ts.pmem <- Some pm;
  Pmem.add_listener pm l

type summary = {
  waw : int;
  raw : int;
  unflushed : int;
  redundant : int;
  tracked_cells : int;
  warning_count : int;
  dropped : int;
}

let summary t =
  let states = thread_states t in
  Mutex.lock t.ranges_lock;
  let segments = t.segments in
  Mutex.unlock t.ranges_lock;
  let sum f = List.fold_left (fun acc ts -> acc + f ts) 0 states in
  let dropped = sum (fun ts -> ts.dropped) in
  {
    waw = sum (fun ts -> ts.waw);
    raw = sum (fun ts -> ts.raw);
    unflushed = sum (fun ts -> ts.unflushed);
    redundant = sum (fun ts -> ts.redundant);
    tracked_cells =
      List.fold_left (fun acc sh -> acc + Shadow.tracked_cells sh) 0 segments;
    warning_count = sum (fun ts -> ts.warning_count) + dropped;
    dropped;
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "WAW=%d RAW=%d unflushed-at-epoch-end=%d redundant-flushes=%d cells=%d \
     warnings=%d%s"
    s.waw s.raw s.unflushed s.redundant s.tracked_cells s.warning_count
    (if s.dropped > 0 then Fmt.str " (%d dropped)" s.dropped else "")
