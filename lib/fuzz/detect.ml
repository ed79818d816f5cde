(* The two PMRace-style detectors the fuzzer adds over the dynamic
   checker, plus the per-run dependence tracking that feeds the
   coverage map.

   1. Synchronization-boundary durability (probe-gated): when the
      genome's delay-injection point lands on a [tx_end] or
      [epoch_end] boundary, every flush issued since the last fence is
      still in flight — a crash injected here loses or reorders it, yet
      the fixed-schedule replay sails through because the commit fence
      (or the next epoch's barriers) retroactively drains it. Reported
      as [Missing_persist_barrier] at the flush site.

   2. Inter-thread persistency inconsistency (schedule-gated): client B
      reads a slot client A has written but not yet persisted, then
      makes its own derived state durable while A's source is still
      volatile. A crash after B's fence recovers B's durable effects
      built on data that never reached NVM. Reported as
      [Strand_dependence] at the read site, post-validated on the crash
      image (the source slot's [durable_value]: listeners fire only on
      persistent, in-bounds slots) so re-reads of already-durable or
      identical data are killed as false positives.

   Both detectors reuse existing rule ids: they refine where and when
   the rules fire, not the taxonomy. *)

let m_probe_detections =
  Obs.Metrics.counter "fuzz.probe_detections"
    ~desc:"synchronization-boundary warnings fired at delay-injection points"

let m_interthread =
  Obs.Metrics.counter "fuzz.interthread_detections"
    ~desc:"validated inter-thread persistency inconsistencies"

let m_fp_killed =
  Obs.Metrics.counter "fuzz.fp_killed"
    ~desc:"inter-thread candidates killed by crash-image validation"

type write_info = { writer : int; wloc : Nvmir.Loc.t }

type candidate = {
  consumer : int;
  src : Runtime.Pmem.addr;
  read_val : Runtime.Value.t;
  rloc : Nvmir.Loc.t;
  producer : write_info;
  mutable derived : Runtime.Pmem.addr list;
      (* consumer writes after the tainted read: the state whose
         durability makes the inconsistency real *)
}

type t = {
  pmem : Runtime.Pmem.t;
  model : Analysis.Model.t;
  cov : Coverage.t;
  mutable client : int;
  mutable boundary : Runtime.Interp.boundary option;
      (* boundary context of the instruction currently executing, set
         by the scheduler hook: an [on_fence] seen under [Btx_end] is a
         commit fence, under [Bfence] an explicit one *)
  last_write : (Runtime.Pmem.addr, write_info) Hashtbl.t;
  last_read : (Runtime.Pmem.addr, Nvmir.Loc.t) Hashtbl.t;
  mutable pending_flushes : (Runtime.Pmem.addr * Nvmir.Loc.t) list;
      (* explicit flushes not yet ordered by any fence, newest first *)
  mutable candidates : candidate list;
  mutable warnings : Analysis.Warning.t list;
}

let create ~model ~cov pmem =
  {
    pmem;
    model;
    cov;
    client = 0;
    boundary = None;
    last_write = Hashtbl.create 64;
    last_read = Hashtbl.create 64;
    pending_flushes = [];
    candidates = [];
    warnings = [];
  }

let set_client t c = t.client <- c
let set_boundary t b = t.boundary <- b

(* The genome and schedule digest are stamped in by [Campaign] once the
   execution's coverage is known; the detector records the transition it
   observed. Only built when witness capture is enabled. *)
let warn t ?transition ~rule ~loc message =
  let witness =
    if Analysis.Witness.enabled () then
      Some
        (Analysis.Witness.Fuzz
           {
             f_genome = "";
             f_schedule = "";
             f_transition =
               (match transition with Some f -> f () | None -> message);
           })
    else None
  in
  t.warnings <-
    Analysis.Warning.make ~origin:Analysis.Warning.Dynamic ?witness ~rule
      ~model:t.model ~loc ~fname:"<fuzz>" message
    :: t.warnings

let on_write t addr loc =
  Coverage.touch_access t.cov ~obj_id:addr.Runtime.Pmem.obj_id
    ~slot:addr.Runtime.Pmem.slot;
  (match Hashtbl.find_opt t.last_write addr with
  | Some prev ->
    Coverage.touch_pair t.cov ~kind:0 ~producer_line:prev.wloc.Nvmir.Loc.line
      ~consumer_line:loc.Nvmir.Loc.line
  | None -> ());
  Hashtbl.replace t.last_write addr { writer = t.client; wloc = loc };
  (* a write after a tainted read is derived state for every live
     candidate of this client *)
  List.iter
    (fun c -> if c.consumer = t.client then c.derived <- addr :: c.derived)
    t.candidates

let on_read t addr loc =
  Coverage.touch_access t.cov ~obj_id:addr.Runtime.Pmem.obj_id
    ~slot:addr.Runtime.Pmem.slot;
  Hashtbl.replace t.last_read addr loc;
  match Hashtbl.find_opt t.last_write addr with
  | None -> ()
  | Some prev ->
    Coverage.touch_pair t.cov ~kind:1 ~producer_line:prev.wloc.Nvmir.Loc.line
      ~consumer_line:loc.Nvmir.Loc.line;
    if
      prev.writer <> t.client
      && Runtime.Pmem.slot_state t.pmem addr <> Runtime.Pmem.Clean
    then begin
      Coverage.touch_pair t.cov ~kind:2 ~producer_line:prev.wloc.Nvmir.Loc.line
        ~consumer_line:loc.Nvmir.Loc.line;
      t.candidates <-
        {
          consumer = t.client;
          src = addr;
          read_val = Runtime.Pmem.cached_value t.pmem addr;
          rloc = loc;
          producer = prev;
          derived = [];
        }
        :: t.candidates
    end

let on_flush t ~obj_id ~first_slot ~nslots ~dirty:_ loc =
  ignore nslots;
  t.pending_flushes <-
    ({ Runtime.Pmem.obj_id; slot = first_slot }, loc) :: t.pending_flushes

(* The consumer just made its flushed state durable. Any candidate of
   this client whose source slot is STILL volatile is an inter-thread
   inconsistency — validated against the crash image: the durable view
   right now must disagree with the value the consumer acted on, and
   at least one derived slot must actually have reached NVM. *)
let check_candidates t =
  let fire, keep =
    List.partition
      (fun c ->
        c.consumer = t.client
        && Runtime.Pmem.slot_state t.pmem c.src <> Runtime.Pmem.Clean)
      t.candidates
  in
  List.iter
    (fun c ->
      let image_val = Runtime.Pmem.durable_value t.pmem c.src in
      let durable_derived =
        List.exists
          (fun d ->
            Runtime.Value.equal
              (Runtime.Pmem.durable_value t.pmem d)
              (Runtime.Pmem.cached_value t.pmem d))
          c.derived
      in
      if
        durable_derived
        && not (Runtime.Value.equal image_val c.read_val)
      then begin
        Obs.Metrics.incr m_interthread;
        warn t
          ~transition:(fun () ->
            Fmt.str
              "obj%d[%d]: consumer %d read the volatile value, derived state \
               reached NVM while the source slot is %s in the crash image"
              c.src.Runtime.Pmem.obj_id c.src.Runtime.Pmem.slot c.consumer
              (if Runtime.Value.equal image_val Runtime.Value.Vnull then
                 "absent"
               else "stale"))
          ~rule:Analysis.Warning.Strand_dependence ~loc:c.rloc
          (Fmt.str
             "durable state built on thread %d's unpersisted write at %a: a \
              crash now recovers the derived values with the source still \
              volatile"
             c.producer.writer Nvmir.Loc.pp c.producer.wloc)
      end
      else Obs.Metrics.incr m_fp_killed)
    fire;
  t.candidates <- keep

let on_fence t _loc =
  if t.pending_flushes <> [] then check_candidates t;
  t.pending_flushes <- []

(* Probe: the genome's single delay-injection point landed on this
   boundary. A crash is simulated here; what is still in flight and
   semantically relied upon becomes a warning. *)
let probe t boundary _loc =
  match boundary with
  | Runtime.Interp.Btx_end | Runtime.Interp.Bepoch_end ->
    let seen = Hashtbl.create 8 in
    List.iter
      (fun ((_, floc) : Runtime.Pmem.addr * Nvmir.Loc.t) ->
        if not (Hashtbl.mem seen floc) then begin
          Hashtbl.replace seen floc ();
          Obs.Metrics.incr m_probe_detections;
          warn t ~rule:Analysis.Warning.Missing_persist_barrier ~loc:floc
            (Fmt.str
               "flush at %a is unordered at the %s boundary: a crash at the \
                injected delay point loses or reorders it (no fence since \
                the write-back)"
               Nvmir.Loc.pp floc
               (Runtime.Interp.boundary_name boundary))
        end)
      (List.rev t.pending_flushes)
  | _ -> ()

let listener t : Runtime.Pmem.listener =
  {
    Runtime.Pmem.null_listener with
    Runtime.Pmem.on_write = (fun addr loc -> on_write t addr loc);
    on_read = (fun addr loc -> on_read t addr loc);
    on_flush =
      (fun ~obj_id ~first_slot ~nslots ~dirty loc ->
        (* commit-internal write-backs are suppressed by Pmem, so every
           notification here is a program flush *)
        on_flush t ~obj_id ~first_slot ~nslots ~dirty loc);
    on_fence = (fun loc -> on_fence t loc);
  }

let attach t = Runtime.Pmem.add_listener t.pmem (listener t)
let warnings t = Analysis.Warning.dedup (List.rev t.warnings)
