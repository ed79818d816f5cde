(* Recovery-path verification. For every durable image a crash can
   leave, reconstitute a post-crash heap (optionally media-corrupted),
   run the program's recovery entry on it, and classify the outcome.
   See recover.mli for the three rules this reports. *)

module Crash_space = Runtime.Crash_space
module Pmem = Runtime.Pmem
module Interp = Runtime.Interp
module Value = Runtime.Value

type verdict = Restored | Flagged | Silent_accept | Crashed

let verdict_name = function
  | Restored -> "restored"
  | Flagged -> "flagged"
  | Silent_accept -> "silent-accept"
  | Crashed -> "crashed"

type image_check = {
  task : Crash_space.task;
  persisted : (int * int) list;
  corruptions : Pmem.corruption list;
  verdict : verdict;
  corrupt_reads : (Pmem.addr * Nvmir.Loc.t) list;
  residual_corrupt : int;
  idempotent : bool;
}

type report = {
  recovery_entry : string;
  images : image_check list;
  crash_points : int;
  images_checked : int;
  corruptions_injected : int;
  restored : int;
  flagged : int;
  silent_accepts : int;
  crashes : int;
  non_idempotent : int;
  sampled : bool;
  warnings : Analysis.Warning.t list;
}

(* ------------------------------------------------------------------ *)
(* Instruments *)

let m_images =
  Obs.Metrics.counter "recover.images_checked"
    ~desc:"crash images run through the recovery entry"

let m_corruptions =
  Obs.Metrics.counter "recover.corruptions_injected"
    ~desc:"media corruptions injected across crash images"

let m_latency =
  Obs.Metrics.histogram "recover.latency_ns"
    ~desc:"per-image recovery execution latency"

let m_verdicts =
  Obs.Metrics.counter "recover.verdicts"
    ~desc:"recovery outcomes by verdict class"

(* ------------------------------------------------------------------ *)
(* One image *)

(* The recovery convention: [recover]'s parameters are references to
   the surviving persistent objects, in id order; missing ones read as
   null so a partial heap still types. *)
let recovery_args heap (fn : Nvmir.Func.t) =
  let rec bind params ids =
    match (params, ids) with
    | [], _ -> []
    | _ :: params, id :: ids -> Value.vref id :: bind params ids
    | _ :: params, [] -> Value.Vnull :: bind params []
  in
  bind fn.Nvmir.Func.params
    (List.filter (Pmem.is_persistent heap) (Pmem.live_objects heap))

(* Persistent cache state, the fix-point the idempotence rule compares:
   durable snapshots would miss repairs recovery wrote but has not yet
   persisted, and those still change what a re-run observes. *)
let persistent_snapshot heap =
  List.filter_map
    (fun id ->
      if Pmem.is_persistent heap id then
        Some
          ( id,
            Array.init (Pmem.obj_size heap id) (fun slot ->
                Pmem.cached_value heap { Pmem.obj_id = id; slot }) )
      else None)
    (List.sort Int.compare (Pmem.live_objects heap))

let snapshots_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ida, va) (idb, vb) ->
         ida = idb
         && Array.length va = Array.length vb
         && Array.for_all2 Value.equal va vb)
       a b

let run_recovery ~recovery_entry ~args heap prog =
  let interp = Interp.create ~pmem:heap prog in
  let outcome =
    match Interp.run_values ~entry:recovery_entry ~args interp with
    | v -> Ok v
    | exception (Interp.Runtime_error _ | Interp.Out_of_fuel) -> Error ()
  in
  (outcome, Interp.corrupt_reads interp)

let check_image ?config ~recovery_entry ~fn ~seed prog
    (ci : Crash_space.crash_image) ~from =
  let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
  let corruptions =
    match seed with
    | Some seed -> Pmem.corrupt_image from ~seed ci.Crash_space.ci_image
    | None -> []
  in
  let corrupt = List.map (fun c -> c.Pmem.c_addr) corruptions in
  let heap = Pmem.restore ?config ~from ~image:ci.Crash_space.ci_image ~corrupt () in
  let args = recovery_args heap fn in
  let outcome, corrupt_reads = run_recovery ~recovery_entry ~args heap prog in
  let residual_corrupt = Pmem.corrupt_slot_count heap in
  let verdict, idempotent =
    match outcome with
    | Error () -> (Crashed, true) (* idempotence is moot: run 1 died *)
    | Ok v ->
      let flagged = Value.truthy v in
      let s1 = persistent_snapshot heap in
      let idempotent =
        match run_recovery ~recovery_entry ~args heap prog with
        | Ok _, _ -> snapshots_equal s1 (persistent_snapshot heap)
        | Error (), _ -> false (* a re-run must not crash either *)
      in
      let verdict =
        if flagged then Flagged
        else if residual_corrupt > 0 then Silent_accept
        else Restored
      in
      (verdict, idempotent)
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr m_images;
    Obs.Metrics.add m_corruptions (List.length corruptions);
    Obs.Metrics.add_labelled m_verdicts
      ("verdict=" ^ verdict_name verdict) 1;
    Obs.Metrics.observe m_latency (Int64.to_int (Int64.sub (Obs.now_ns ()) t0))
  end;
  {
    task = ci.Crash_space.ci_task;
    persisted = ci.Crash_space.ci_persisted;
    corruptions;
    verdict;
    corrupt_reads;
    residual_corrupt;
    idempotent;
  }

(* ------------------------------------------------------------------ *)
(* Warnings *)

(* Where whole-recovery defects (silent accept, non-idempotence) are
   reported: the first located instruction of the recovery entry
   block, or the function's own location. *)
let report_loc (fn : Nvmir.Func.t) =
  let entry = Nvmir.Func.entry_block fn in
  match
    List.find_opt
      (fun (i : Nvmir.Instr.t) -> not (Nvmir.Loc.is_none i.Nvmir.Instr.loc))
      entry.Nvmir.Func.instrs
  with
  | Some i -> i.Nvmir.Instr.loc
  | None -> fn.Nvmir.Func.floc

let task_name = function
  | Crash_space.Point k -> Fmt.str "point %d" k
  | Crash_space.Exit -> "exit"

let warnings_of ~model ~recovery_entry ~fn heap_name checks =
  (* The witness pins the exact crash image the recovery run tripped
     on: crash-point, image id, persisted subset, corruption record and
     the verdict the executor reached. Built only when capture is on. *)
  let witness_of (c : image_check) =
    if not (Analysis.Witness.enabled ()) then None
    else
      Some
        (Analysis.Witness.Recover
           {
             r_task = task_name c.task;
             r_image = Analysis.Witness.image_id c.persisted;
             r_persisted = c.persisted;
             r_corruptions =
               List.map
                 (fun (co : Pmem.corruption) ->
                   ( co.Pmem.c_addr.Pmem.obj_id,
                     co.Pmem.c_addr.Pmem.slot,
                     Pmem.corruption_kind_name co.Pmem.c_kind ))
                 c.corruptions;
             r_verdict = verdict_name c.verdict;
           })
  in
  let w ?ctx rule loc msg =
    let witness = Option.bind ctx witness_of in
    Analysis.Warning.make ~origin:Analysis.Warning.Dynamic ?witness ~rule
      ~model ~loc ~fname:recovery_entry msg
  in
  let loc0 = report_loc fn in
  let unguarded =
    List.concat_map
      (fun c ->
        List.map
          (fun ((addr : Pmem.addr), loc) ->
            w ~ctx:c Analysis.Warning.Unguarded_recovery_read loc
              (Fmt.str
                 "recovery reads possibly-corrupt slot %s[%d] without a CRC \
                  guard"
                 (heap_name addr.Pmem.obj_id) addr.Pmem.slot))
          c.corrupt_reads)
      checks
  in
  let silent =
    match List.find_opt (fun c -> c.verdict = Silent_accept) checks with
    | Some c ->
      [
        w ~ctx:c Analysis.Warning.Silent_corruption_accept loc0
          (Fmt.str
             "recovery returned success with %d corrupt slot(s) still \
              present"
             c.residual_corrupt);
      ]
    | None -> []
  in
  let non_idem =
    match List.find_opt (fun c -> not c.idempotent) checks with
    | Some c ->
      [
        w ~ctx:c Analysis.Warning.Non_idempotent_recovery loc0
          "running recovery twice over the same image changes persistent \
           state (recovery must be a fix-point)";
      ]
    | None -> []
  in
  Analysis.Warning.sort
    (Analysis.Warning.dedup (unguarded @ silent @ non_idem))

(* ------------------------------------------------------------------ *)
(* Driver *)

let verify ?config ?entry ?args ?(recovery_entry = "recover") ?bound
    ?(seed = 1) ?(corrupt = true) ?(model = Analysis.Model.Strict) prog =
  Obs.Span.with_ ~name:"recover-verify" ~args:[ ("entry", recovery_entry) ]
  @@ fun () ->
  let fn =
    match Nvmir.Prog.find_func prog recovery_entry with
    | Some fn -> fn
    | None ->
      invalid_arg
        (Fmt.str "Recover.verify: no recovery entry %S" recovery_entry)
  in
  let recording = Crash_space.record ?config ?entry ?args prog in
  let crash_points = Crash_space.count_points recording in
  let counter = ref 0 in
  let heap_names = Hashtbl.create 8 in
  let rev_checks, sampled =
    List.fold_left
      (fun (acc, sampled) task ->
        let from, images, s =
          Crash_space.task_images ?bound ~seed ~task recording
        in
        List.iter
          (fun id ->
            match Pmem.obj_name from id with
            | Some n -> Hashtbl.replace heap_names id n
            | None -> ())
          (Pmem.live_objects from);
        let acc =
          List.fold_left
            (fun acc ci ->
              incr counter;
              let seed =
                if corrupt then Some (seed + (137 * !counter)) else None
              in
              check_image ?config ~recovery_entry ~fn ~seed prog ci ~from
              :: acc)
            acc images
        in
        (acc, sampled || s))
      ([], false)
      (Crash_space.tasks ~crash_points)
  in
  let checks = List.rev rev_checks in
  let heap_name id =
    match Hashtbl.find_opt heap_names id with
    | Some n -> n
    | None -> Fmt.str "o%d" id
  in
  let count p = List.length (List.filter p checks) in
  {
    recovery_entry;
    images = checks;
    crash_points;
    images_checked = List.length checks;
    corruptions_injected =
      List.fold_left (fun n c -> n + List.length c.corruptions) 0 checks;
    restored = count (fun c -> c.verdict = Restored);
    flagged = count (fun c -> c.verdict = Flagged);
    silent_accepts = count (fun c -> c.verdict = Silent_accept);
    crashes = count (fun c -> c.verdict = Crashed);
    non_idempotent = count (fun c -> not c.idempotent);
    sampled;
    warnings = warnings_of ~model ~recovery_entry ~fn heap_name checks;
  }

let consistent r = r.warnings = []

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_verdict ppf v = Fmt.string ppf (verdict_name v)

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>recovery entry %s: %d crash point(s), %d image(s)%s, %d \
     corruption(s) injected@,\
     verdicts: %d restored, %d flagged, %d silent-accept, %d crashed; %d \
     non-idempotent@,\
     %a@]"
    r.recovery_entry r.crash_points r.images_checked
    (if r.sampled then " (sampled)" else "")
    r.corruptions_injected r.restored r.flagged r.silent_accepts r.crashes
    r.non_idempotent
    (fun ppf -> function
      | [] -> Fmt.string ppf "recovery verified clean: no warnings"
      | ws ->
        Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut Analysis.Warning.pp) ws)
    r.warnings
