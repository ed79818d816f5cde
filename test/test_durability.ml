(* Durability end-to-end: crash invariants over corpus fixed variants,
   native crash-recovery of the log store at every injection point, and
   mutation robustness of the checker (dropping durability operations
   from correct programs never hides bugs and usually introduces
   warnings). *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Corpus fixed variants under the crash oracle *)

let crash_fixed name ~entry ~invariant =
  match Corpus.Registry.find name with
  | None -> Alcotest.fail ("missing corpus program " ^ name)
  | Some p -> (
    match Corpus.Types.parse_fixed p with
    | None -> Alcotest.fail (name ^ " has no fixed variant")
    | Some fixed ->
      Deepmc.Crash_sweep.explore_program ~entry
        ~oracle:(Runtime.Crash_space.Invariant invariant) fixed)

(* One slot of a durable image, through the image oracle's reader. *)
let durable read obj_id slot =
  Runtime.Value.to_int (read { Runtime.Pmem.obj_id; slot })

let test_fixed_pmemlog_atomic () =
  (* obj_pmemlog fixed: len and tail commit transactionally after the
     header flush is fenced. Invariant: tail is only durable when len
     is (tail set => header written first). Object 0 is the log:
     slot 0 = len, slot 1 = tail. *)
  let invariant read =
    if durable read 0 1 <> 0 && durable read 0 0 = 0 then
      Error "tail durable before the header"
    else Ok ()
  in
  let report = crash_fixed "obj_pmemlog" ~entry:"pmemlog_driver" ~invariant in
  check Alcotest.bool "no inconsistent crash point" true
    (Runtime.Crash_space.consistent report);
  check Alcotest.bool "crash points exercised" true
    (report.Runtime.Crash_space.crash_points > 3)

let test_fixed_btree_split_atomic () =
  (* btree fixed: the split is fully logged, so at any crash point the
     durable state is all-or-nothing for the transaction's two writes
     (node.items[3] = 0 is indistinguishable from 'old', so check the
     companion write instead: if m.n is durable as 5, the tx committed,
     which also covers the item). Object layout: node = obj 0
     (n at slot 0), m = obj 1 (n at slot 0). *)
  let invariant read =
    let m_n = durable read 1 0 in
    if m_n <> 0 && m_n <> 5 then Error (Fmt.str "torn tx value %d" m_n)
    else Ok ()
  in
  let report = crash_fixed "btree_map" ~entry:"btree_driver_all" ~invariant in
  check Alcotest.bool "transactional split is atomic" true
    (Runtime.Crash_space.consistent report)

let test_buggy_btree_split_commits_item () =
  (* Figure 2's split stores an item it never TX_ADDs. That is the
     static tier's finding: the runtime logs a transaction's first store
     to every persistent slot whether or not the program did
     ([Pmem.write]), so the commit flushes the item with the logged
     write and the prefix image at exit holds both *)
  match Corpus.Registry.find "btree_map" with
  | None -> Alcotest.fail "btree_map missing"
  | Some p ->
    let prog = Corpus.Types.parse p in
    (* the prefix image at exit: nothing in flight reached NVM *)
    let pmem, images, _ =
      Runtime.Crash_space.crash_images ~entry:"btree_driver_split"
        ~task:Runtime.Crash_space.Exit prog
    in
    let read =
      match images with
      | ci :: _ -> Runtime.Crash_space.reader ci.Runtime.Crash_space.ci_image
      | [] -> Alcotest.fail "exit has at least one image"
    in
    (* node = obj 0: n slot 0, items slots 1..8; driver stored n=4 and
       the split wrote items[3] (slot 4); m = obj 1 with n logged *)
    check Alcotest.int "logged write committed" 5 (durable read 1 0);
    let item = { Runtime.Pmem.obj_id = 0; slot = 4 } in
    let cached = Runtime.Pmem.cached_value pmem item in
    check Alcotest.bool "the split wrote the item" true
      (Runtime.Value.equal cached (Runtime.Value.Vint 0));
    check Alcotest.bool "the commit made the item durable" true
      (Runtime.Value.equal cached (read item))

(* ------------------------------------------------------------------ *)
(* Native crash-recovery of the log store at every injection point *)

exception Native_crash

let test_logstore_recovers_at_every_point () =
  (* count persistent events of a 6-set run, then re-execute crashing at
     each event; recovery must always yield a consistent prefix *)
  let run_sets st = List.iter (fun k -> Workloads.Logstore.set st k (k * 7))
      [ 1; 2; 3; 4; 5; 6 ] in
  let total =
    let pmem = Runtime.Pmem.create () in
    let events = ref 0 in
    Runtime.Pmem.add_listener pmem
      {
        Runtime.Pmem.null_listener with
        Runtime.Pmem.on_write = (fun _ _ -> incr events);
        on_flush = (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ _ -> incr events);
        on_fence = (fun _ -> incr events);
      };
    run_sets (Workloads.Logstore.create ~log_capacity:64 pmem);
    !events
  in
  for at = 1 to total do
    let pmem = Runtime.Pmem.create () in
    let events = ref 0 in
    let bump _ =
      incr events;
      if !events = at then raise Native_crash
    in
    Runtime.Pmem.add_listener pmem
      {
        Runtime.Pmem.null_listener with
        Runtime.Pmem.on_write = (fun _ loc -> bump loc);
        on_flush = (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ loc -> bump loc);
        on_fence = (fun loc -> bump loc);
      };
    let st = Workloads.Logstore.create ~log_capacity:64 pmem in
    (try run_sets st with Native_crash -> ());
    Runtime.Pmem.remove_listeners pmem;
    (* recovery sees only the durable prefix; every recovered entry must
       be one of the writes we issued, in order *)
    let n = Workloads.Logstore.recover st in
    if n < 0 || n > 6 then Alcotest.fail "impossible recovered count";
    for k = 1 to n do
      match Workloads.Logstore.get st k with
      | Some v when v = k * 7 -> ()
      | Some v -> Alcotest.fail (Fmt.str "crash@%d: key %d -> %d" at k v)
      | None -> Alcotest.fail (Fmt.str "crash@%d: key %d lost from prefix" at k)
    done
  done

(* ------------------------------------------------------------------ *)
(* Mutation robustness of the checker *)

type mutation = Drop_persist | Drop_fence | Drop_tx_add

let apply_mutation which nth prog =
  let count = ref 0 in
  Deepmc.Rewrite.map_funcs prog (fun f ->
      {
        f with
        Nvmir.Func.blocks =
          List.map
            (fun (b : Nvmir.Func.block) ->
              {
                b with
                Nvmir.Func.instrs =
                  List.filter
                    (fun (i : Nvmir.Instr.t) ->
                      let hit =
                        match (which, i.Nvmir.Instr.kind) with
                        | Drop_persist, Nvmir.Instr.Persist _
                        | Drop_fence, Nvmir.Instr.Fence
                        | Drop_tx_add, Nvmir.Instr.Tx_add _ ->
                          incr count;
                          !count = nth
                        | _ -> false
                      in
                      not hit)
                    b.Nvmir.Func.instrs;
              })
            f.Nvmir.Func.blocks;
      })

let mutation_arb =
  QCheck.make
    ~print:(fun (s, m, n) ->
      Fmt.str "seed=%d mutation=%s nth=%d" s
        (match m with
        | Drop_persist -> "persist"
        | Drop_fence -> "fence"
        | Drop_tx_add -> "tx_add")
        n)
    QCheck.Gen.(
      let* s = map abs int in
      let* m = oneofl [ Drop_persist; Drop_fence; Drop_tx_add ] in
      let* n = int_range 1 5 in
      return (s, m, n))

let prop_mutations_never_hide_bugs =
  (* removing a durability op can only lose durability, so MODEL
     VIOLATIONS never decrease. (Performance warnings may legitimately
     disappear: deleting a redundant persist removes the redundancy.) *)
  QCheck.Test.make ~name:"dropping one durability op never hides violations"
    ~count:40 mutation_arb (fun (seed, which, nth) ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 12;
          buggy_fraction_pct = 25 }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      let roots = Corpus.Synth.roots cfg in
      let n_violations p =
        List.length
          (Analysis.Checker.violations
             (Analysis.Checker.check ~roots ~model:Analysis.Model.Strict p))
      in
      n_violations (apply_mutation which nth prog) >= n_violations prog)

let prop_dropped_persist_is_detected =
  QCheck.Test.make ~name:"dropping a persist from a clean program is caught"
    ~count:25
    QCheck.(map abs int)
    (fun seed ->
      let cfg = { Corpus.Synth.default_config with seed; nfuncs = 12 } in
      let prog, _ = Corpus.Synth.generate cfg in
      let roots = Corpus.Synth.roots cfg in
      let mutated = apply_mutation Drop_persist 1 prog in
      let warnings p =
        (Analysis.Checker.check ~roots ~model:Analysis.Model.Strict p)
          .Analysis.Checker.warnings
      in
      (* either the program had no persist to drop, or the checker
         reports the new unflushed write *)
      Fmt.str "%a" Nvmir.Prog.pp mutated = Fmt.str "%a" Nvmir.Prog.pp prog
      || List.exists
           (fun (w : Analysis.Warning.t) ->
             w.Analysis.Warning.rule = Analysis.Warning.Unflushed_write)
           (warnings mutated))

let suite =
  [
    tc "fixed pmemlog is crash-atomic" `Quick test_fixed_pmemlog_atomic;
    tc "fixed btree split is crash-atomic" `Quick test_fixed_btree_split_atomic;
    tc "buggy btree split item commits with the tx (Fig. 2)" `Quick
      test_buggy_btree_split_commits_item;
    tc "logstore recovers at every crash point" `Slow
      test_logstore_recovers_at_every_point;
    QCheck_alcotest.to_alcotest prop_mutations_never_hide_bugs;
    QCheck_alcotest.to_alcotest prop_dropped_persist_is_detected;
  ]
