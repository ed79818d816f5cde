(* Tests for the NVM runtime simulator: the write/flush/fence state
   machine, transactions with undo logging, crash semantics, listeners,
   cost accounting — plus qcheck state-machine properties over random
   operation sequences. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let tenv = Nvmir.Ty.env_create ()

let fresh_obj ?(size = 16) pmem =
  Runtime.Pmem.alloc pmem ~tenv ~persistent:true
    (Nvmir.Ty.Array (Nvmir.Ty.Int, size))

let addr obj slot = { Runtime.Pmem.obj_id = obj; slot }
let vint n = Runtime.Value.Vint n
let to_int = Runtime.Value.to_int

let test_write_read () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.write pmem (addr o 3) (vint 7);
  check Alcotest.int "cached read" 7 (to_int (Runtime.Pmem.read pmem (addr o 3)));
  check Alcotest.int "durable view still default" 0
    (to_int (Runtime.Pmem.durable_value pmem (addr o 3)))

let test_state_machine () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  check Alcotest.bool "clean initially" true
    (Runtime.Pmem.slot_state pmem (addr o 0) = Runtime.Pmem.Clean);
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  check Alcotest.bool "dirty after write" true
    (Runtime.Pmem.slot_state pmem (addr o 0) = Runtime.Pmem.Dirty);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  check Alcotest.bool "flushed after clwb" true
    (Runtime.Pmem.slot_state pmem (addr o 0) = Runtime.Pmem.Flushed);
  check Alcotest.int "not yet durable" 0
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)));
  Runtime.Pmem.fence pmem ();
  check Alcotest.bool "clean after fence" true
    (Runtime.Pmem.slot_state pmem (addr o 0) = Runtime.Pmem.Clean);
  check Alcotest.int "durable after fence" 1
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)))

let test_redirty_between_flush_and_fence () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.write pmem (addr o 0) (vint 2);
  (* the re-dirtied slot must not be drained by the fence *)
  Runtime.Pmem.fence pmem ();
  check Alcotest.bool "still dirty" true
    (Runtime.Pmem.slot_state pmem (addr o 0) = Runtime.Pmem.Dirty);
  check Alcotest.int "durable unchanged" 0
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)))

let test_cacheline_granularity () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  (* slots 0 and 1 share a line (default line = 8 slots) *)
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.write pmem (addr o 1) (vint 2);
  Runtime.Pmem.write pmem (addr o 9) (vint 3);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  check Alcotest.int "same-line neighbour persisted" 2
    (to_int (Runtime.Pmem.durable_value pmem (addr o 1)));
  check Alcotest.int "other line untouched" 0
    (to_int (Runtime.Pmem.durable_value pmem (addr o 9)))

let test_volatile_objects_have_no_persistence () =
  let pmem = Runtime.Pmem.create () in
  let v =
    Runtime.Pmem.alloc pmem ~tenv ~persistent:false
      (Nvmir.Ty.Array (Nvmir.Ty.Int, 4))
  in
  Runtime.Pmem.write pmem (addr v 0) (vint 9);
  check Alcotest.bool "volatile slots stay clean" true
    (Runtime.Pmem.slot_state pmem (addr v 0) = Runtime.Pmem.Clean);
  Runtime.Pmem.flush_range pmem ~obj_id:v ~first_slot:0 ~nslots:1 ();
  check Alcotest.int "flushes of volatile memory are no-ops" 0
    (Runtime.Pmem.stats pmem).Runtime.Pmem.flushes

let test_tx_commit_durable () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.tx_begin pmem ();
  Runtime.Pmem.write pmem (addr o 0) (vint 5);
  Runtime.Pmem.tx_end pmem ();
  check Alcotest.int "committed value durable" 5
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)))

let test_tx_rollback_on_crash () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  (* establish a durable value first *)
  Runtime.Pmem.write pmem (addr o 0) (vint 10);
  Runtime.Pmem.persist_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  (* an open transaction modifies and even flushes the slot *)
  Runtime.Pmem.tx_begin pmem ();
  Runtime.Pmem.write pmem (addr o 0) (vint 99);
  Runtime.Pmem.persist_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  (* crash now: the undo log rolls the uncommitted write back *)
  check Alcotest.int "durable view rolls back" 10
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)));
  Runtime.Pmem.tx_end pmem ();
  check Alcotest.int "committed after tx_end" 99
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)))

let test_nested_tx_log_folding () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.persist_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.tx_begin pmem ();
  Runtime.Pmem.tx_begin pmem ();
  Runtime.Pmem.write pmem (addr o 0) (vint 2);
  Runtime.Pmem.tx_end pmem ();
  (* inner committed, outer still open: outer can still roll back *)
  check Alcotest.int "outer tx still protects" 1
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)));
  Runtime.Pmem.tx_end pmem ();
  check Alcotest.int "fully committed" 2
    (to_int (Runtime.Pmem.durable_value pmem (addr o 0)))

let test_tx_errors () =
  let pmem = Runtime.Pmem.create () in
  Alcotest.check_raises "tx_end without begin"
    (Invalid_argument "Pmem.tx_end: no open transaction") (fun () ->
      Runtime.Pmem.tx_end pmem ());
  Alcotest.check_raises "tx_add without begin"
    (Invalid_argument "Pmem.tx_add: no open transaction") (fun () ->
      Runtime.Pmem.tx_add pmem ~obj_id:0 ~first_slot:0 ~nslots:1 ())

let test_bounds_checking () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj ~size:4 pmem in
  Alcotest.check_raises "write out of bounds"
    (Invalid_argument (Fmt.str "Pmem.write: slot 4 out of bounds for obj%d" o))
    (fun () -> Runtime.Pmem.write pmem (addr o 4) (vint 1))

let test_stats_and_redundant_flushes () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  let s = Runtime.Pmem.stats pmem in
  check Alcotest.int "two flushes" 2 s.Runtime.Pmem.flushes;
  check Alcotest.int "one redundant" 1 s.Runtime.Pmem.redundant_flushes;
  check Alcotest.bool "cycles accumulate" true (s.Runtime.Pmem.cycles > 0)

let test_listener_events () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  let writes = ref 0 and flushes = ref 0 and fences = ref 0 in
  Runtime.Pmem.add_listener pmem
    {
      Runtime.Pmem.null_listener with
      Runtime.Pmem.on_write = (fun _ _ -> incr writes);
      on_flush = (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ _ -> incr flushes);
      on_fence = (fun _ -> incr fences);
    };
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.persist_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  check Alcotest.(list int) "events seen" [ 1; 1; 1 ] [ !writes; !flushes; !fences ]

let test_volatile_slot_count () =
  let pmem = Runtime.Pmem.create () in
  let o = fresh_obj pmem in
  Runtime.Pmem.write pmem (addr o 0) (vint 1);
  Runtime.Pmem.write pmem (addr o 1) (vint 2);
  check Alcotest.int "two volatile slots" 2 (Runtime.Pmem.volatile_slot_count pmem);
  Runtime.Pmem.persist_range pmem ~obj_id:o ~first_slot:0
    ~nslots:(Runtime.Pmem.obj_size pmem o) ();
  check Alcotest.int "none after persist" 0 (Runtime.Pmem.volatile_slot_count pmem)

(* ------------------------------------------------------------------ *)
(* qcheck state-machine properties *)

type op = Wr of int * int | Fl of int | Fe | TxB | TxE

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun s v -> Wr (s land 7, v)) int int);
        (3, map (fun s -> Fl (s land 7)) int);
        (2, return Fe);
        (1, return TxB);
        (1, return TxE);
      ])

let show_op = function
  | Wr (s, v) -> Fmt.str "Wr(%d,%d)" s v
  | Fl s -> Fmt.str "Fl %d" s
  | Fe -> "Fe"
  | TxB -> "TxB"
  | TxE -> "TxE"

let ops_arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map show_op l))
    QCheck.Gen.(list_size (int_range 0 40) op_gen)

let apply pmem o depth = function
  | Wr (s, v) -> Runtime.Pmem.write pmem (addr o s) (vint v)
  | Fl s -> Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:s ~nslots:1 ()
  | Fe -> Runtime.Pmem.fence pmem ()
  | TxB ->
    Runtime.Pmem.tx_begin pmem ();
    incr depth
  | TxE ->
    if !depth > 0 then begin
      Runtime.Pmem.tx_end pmem ();
      decr depth
    end

(* After any op sequence, the durable view of each slot is either the
   current cached value or some previously-written (or initial) value —
   never a value that was never stored. *)
let prop_durable_is_some_written_value =
  QCheck.Test.make ~name:"durable value was actually written" ~count:200
    ops_arb (fun ops ->
      let pmem = Runtime.Pmem.create () in
      let o = fresh_obj ~size:8 pmem in
      let written = Hashtbl.create 16 in
      for s = 0 to 7 do
        Hashtbl.replace written (s, 0) ()
      done;
      let depth = ref 0 in
      List.iter
        (fun op ->
          (match op with Wr (s, v) -> Hashtbl.replace written (s, v) () | _ -> ());
          apply pmem o depth op)
        ops;
      let ok = ref true in
      for s = 0 to 7 do
        let d = to_int (Runtime.Pmem.durable_value pmem (addr o s)) in
        if not (Hashtbl.mem written (s, d)) then ok := false
      done;
      !ok)

(* Outside transactions, a fence makes every previously-flushed slot
   durable: flush+fence of a slot always yields durable = cached. *)
let prop_persist_makes_durable =
  QCheck.Test.make ~name:"flush+fence persists (outside tx)" ~count:200 ops_arb
    (fun ops ->
      let pmem = Runtime.Pmem.create () in
      let o = fresh_obj ~size:8 pmem in
      let depth = ref 0 in
      List.iter (apply pmem o depth) ops;
      while !depth > 0 do
        Runtime.Pmem.tx_end pmem ();
        decr depth
      done;
      Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:8 ();
      Runtime.Pmem.fence pmem ();
      List.for_all
        (fun s ->
          Runtime.Value.equal
            (Runtime.Pmem.cached_value pmem (addr o s))
            (Runtime.Pmem.durable_value pmem (addr o s)))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* The durable snapshot agrees with durable_value. *)
let prop_snapshot_consistent =
  QCheck.Test.make ~name:"durable snapshot agrees with durable_value"
    ~count:100 ops_arb (fun ops ->
      let pmem = Runtime.Pmem.create () in
      let o = fresh_obj ~size:8 pmem in
      let depth = ref 0 in
      List.iter (apply pmem o depth) ops;
      let snap = Runtime.Pmem.durable_snapshot pmem in
      match Hashtbl.find_opt snap o with
      | None -> false
      | Some values ->
        List.for_all
          (fun s ->
            Runtime.Value.equal values.(s)
              (Runtime.Pmem.durable_value pmem (addr o s)))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let suite =
  [
    tc "write/read" `Quick test_write_read;
    tc "state machine clean->dirty->flushed->clean" `Quick test_state_machine;
    tc "re-dirty between flush and fence" `Quick
      test_redirty_between_flush_and_fence;
    tc "cache-line granularity" `Quick test_cacheline_granularity;
    tc "volatile objects" `Quick test_volatile_objects_have_no_persistence;
    tc "tx commit durable" `Quick test_tx_commit_durable;
    tc "tx rollback on crash" `Quick test_tx_rollback_on_crash;
    tc "nested tx log folding" `Quick test_nested_tx_log_folding;
    tc "tx misuse errors" `Quick test_tx_errors;
    tc "bounds checking" `Quick test_bounds_checking;
    tc "stats and redundant flushes" `Quick test_stats_and_redundant_flushes;
    tc "listener events" `Quick test_listener_events;
    tc "volatile slot count" `Quick test_volatile_slot_count;
    QCheck_alcotest.to_alcotest prop_durable_is_some_written_value;
    QCheck_alcotest.to_alcotest prop_persist_makes_durable;
    QCheck_alcotest.to_alcotest prop_snapshot_consistent;
  ]
