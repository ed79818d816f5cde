(* Tests for the dynamic checker: the shadow segment's happens-before
   logic, race detection between strands, epoch-end volatility
   reporting, and redundant-flush classification. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Shadow ordering *)

let test_shadow_ordering () =
  let open Runtime.Shadow in
  let w = { strand = 1; fence_at = 3; loc = Nvmir.Loc.none } in
  check Alcotest.bool "same strand ordered" true
    (ordered_before w ~strand:1 ~begin_fence:0);
  check Alcotest.bool "barrier orders" true
    (ordered_before w ~strand:2 ~begin_fence:4);
  check Alcotest.bool "no barrier: concurrent" false
    (ordered_before w ~strand:2 ~begin_fence:3)

let test_shadow_waw_detection () =
  let sh = Runtime.Shadow.create ~obj_size:(fun _ -> 2) in
  let a1 = { Runtime.Shadow.strand = 1; fence_at = 0; loc = Nvmir.Loc.none } in
  let a2 = { Runtime.Shadow.strand = 2; fence_at = 0; loc = Nvmir.Loc.none } in
  check Alcotest.int "first write clean" 0
    (List.length (Runtime.Shadow.record_write sh ~obj_id:0 ~slot:1 ~begin_fence:0 a1));
  let conflicts = Runtime.Shadow.record_write sh ~obj_id:0 ~slot:1 ~begin_fence:0 a2 in
  check Alcotest.int "WAW detected" 1 (List.length conflicts);
  (* after a barrier, the next strand is ordered *)
  let a3 = { Runtime.Shadow.strand = 3; fence_at = 1; loc = Nvmir.Loc.none } in
  check Alcotest.int "ordered after barrier" 0
    (List.length (Runtime.Shadow.record_write sh ~obj_id:0 ~slot:1 ~begin_fence:1 a3))

let test_shadow_raw_detection () =
  let sh = Runtime.Shadow.create ~obj_size:(fun _ -> 2) in
  let w = { Runtime.Shadow.strand = 1; fence_at = 0; loc = Nvmir.Loc.none } in
  ignore (Runtime.Shadow.record_write sh ~obj_id:0 ~slot:0 ~begin_fence:0 w);
  let r = { Runtime.Shadow.strand = 2; fence_at = 0; loc = Nvmir.Loc.none } in
  (match Runtime.Shadow.record_read sh ~obj_id:0 ~slot:0 ~begin_fence:0 r with
  | Some (`Raw _) -> ()
  | None -> Alcotest.fail "expected RAW race");
  check Alcotest.int "cells tracked" 1 (Runtime.Shadow.tracked_cells sh)

(* ------------------------------------------------------------------ *)
(* End-to-end dynamic checking through the interpreter *)

let run_dynamic ?(model = Analysis.Model.Strand) src =
  let prog = Nvmir.Parser.parse src in
  let pmem = Runtime.Pmem.create () in
  let checker = Runtime.Dynamic.create ~model () in
  Runtime.Dynamic.attach checker pmem;
  let interp = Runtime.Interp.create ~pmem prog in
  ignore (Runtime.Interp.run ~entry:"main" interp);
  Runtime.Dynamic.summary checker

let strand_prog ~with_fence ~same_field =
  Fmt.str
    {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  strand_begin 1
  store p->f, 1
  flush exact p->f
  strand_end 1
%s
  strand_begin 2
  store p->%s, 2
  flush exact p->%s
  strand_end 2
  fence
  ret
}
|}
    (if with_fence then "  fence" else "")
    (if same_field then "f" else "g")
    (if same_field then "f" else "g")

let test_dynamic_waw_race () =
  let s = run_dynamic (strand_prog ~with_fence:false ~same_field:true) in
  check Alcotest.int "one WAW race" 1 s.Runtime.Dynamic.waw

let test_dynamic_fence_orders_strands () =
  let s = run_dynamic (strand_prog ~with_fence:true ~same_field:true) in
  check Alcotest.int "no race with barrier" 0 s.Runtime.Dynamic.waw

let test_dynamic_disjoint_strands () =
  let s = run_dynamic (strand_prog ~with_fence:false ~same_field:false) in
  check Alcotest.int "no race on disjoint fields" 0 s.Runtime.Dynamic.waw

let test_dynamic_raw_race () =
  let s =
    run_dynamic
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  strand_begin 1
  store p->f, 1
  flush exact p->f
  strand_end 1
  strand_begin 2
  x = load p->f
  strand_end 2
  fence
  ret
}
|}
  in
  check Alcotest.int "one RAW race" 1 s.Runtime.Dynamic.raw

let test_dynamic_epoch_end_unflushed () =
  let s =
    run_dynamic ~model:Analysis.Model.Epoch
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  epoch_end
  ret
}
|}
  in
  check Alcotest.int "unflushed at epoch end" 1 s.Runtime.Dynamic.unflushed

let test_dynamic_epoch_end_clean () =
  let s =
    run_dynamic ~model:Analysis.Model.Epoch
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  flush exact p->f
  fence
  epoch_end
  ret
}
|}
  in
  check Alcotest.int "clean epoch" 0 s.Runtime.Dynamic.unflushed

let test_dynamic_redundant_flush_classes () =
  let s =
    run_dynamic ~model:Analysis.Model.Epoch
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  flush exact p->f
  fence
  flush exact p->f
  fence
  epoch_end
  ret
}
|}
  in
  check Alcotest.int "redundant flush counted" 1 s.Runtime.Dynamic.redundant

let test_dynamic_untracked_outside_regions () =
  (* the same redundant flush outside any annotated region is not
     tracked — the overhead-reduction property of 4.4 *)
  let s =
    run_dynamic ~model:Analysis.Model.Epoch
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  flush exact p->f
  fence
  flush exact p->f
  fence
  ret
}
|}
  in
  check Alcotest.int "not tracked outside regions" 0 s.Runtime.Dynamic.redundant;
  check Alcotest.int "no cells" 0 s.Runtime.Dynamic.tracked_cells

let test_dynamic_warning_cap () =
  let pmem = Runtime.Pmem.create () in
  let checker = Runtime.Dynamic.create ~max_warnings:5 ~model:Analysis.Model.Epoch () in
  Runtime.Dynamic.attach checker pmem;
  let tenv = Nvmir.Ty.env_create () in
  let o =
    Runtime.Pmem.alloc pmem ~tenv ~persistent:true
      (Nvmir.Ty.Array (Nvmir.Ty.Int, 8))
  in
  Runtime.Pmem.epoch_begin pmem ();
  Runtime.Pmem.write pmem { Runtime.Pmem.obj_id = o; slot = 0 } (Runtime.Value.Vint 1);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  for _ = 1 to 20 do
    Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
    Runtime.Pmem.fence pmem ()
  done;
  Runtime.Pmem.epoch_end pmem ();
  let s = Runtime.Dynamic.summary checker in
  check Alcotest.int "stored warnings capped" 5
    (List.length (Runtime.Dynamic.warnings checker));
  check Alcotest.int "all occurrences counted" 20 s.Runtime.Dynamic.warning_count

(* Regression (bugfix): the slot encoding used to pack slot into 24 bits
   with no range check, so obj 0 slot 2^24 aliased obj 1 slot 0 and
   fabricated races. The segment now keeps each object's slots apart,
   sized from the object, and rejects a slot outside it. *)
let test_shadow_key_range () =
  let open Runtime.Shadow in
  let big = 1 lsl 24 in
  let sh = create ~obj_size:(function 0 -> big + 1 | _ -> 4) in
  let a strand = { strand; fence_at = 0; loc = Nvmir.Loc.none } in
  ignore (record_write sh ~obj_id:0 ~slot:big ~begin_fence:0 (a 1));
  check Alcotest.bool "obj 1 slot 0 not written" false
    (ever_written sh ~obj_id:1 ~slot:0);
  check Alcotest.int "slot 2^24 does not alias obj 1" 0
    (List.length (record_write sh ~obj_id:1 ~slot:0 ~begin_fence:0 (a 2)));
  check Alcotest.int "two cells" 2 (tracked_cells sh);
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "negative slot rejected" true
    (raises (fun () -> record_write sh ~obj_id:1 ~slot:(-1) ~begin_fence:0 (a 1)));
  check Alcotest.bool "slot at the object's size rejected" true
    (raises (fun () -> record_write sh ~obj_id:1 ~slot:4 ~begin_fence:0 (a 1)));
  check Alcotest.bool "slot beyond the object's size rejected" true
    (raises (fun () ->
         record_read sh ~obj_id:0 ~slot:(big + 1) ~begin_fence:0 (a 1)));
  check Alcotest.bool "out-of-range query rejected" true
    (raises (fun () -> ever_written sh ~obj_id:1 ~slot:4));
  check Alcotest.int "rejected accesses track nothing" 2 (tracked_cells sh)

(* Differential against the lock-striped segment it replaced
   ([Ref_shadow]): random streams of writes, reads, barriers and region
   begins over objects in two id windows, one of them with a slot at
   2^24, must give the same conflict lists (in order), the same
   [ever_written] answers and the same [tracked_cells]. *)
type shadow_op =
  | W of int * int * int (* object, slot, strand *)
  | R of int * int * int
  | Fence
  | Begin of int (* strand *)
  | Written of int * int

let big_slot = 1 lsl 24

(* (id, size): three objects in window 0, two in window 2^20; obj 2
   spans two pages *)
let shadow_objs =
  [ (0, big_slot + 2); (1, 3); (2, 300); (1 lsl 20, 5); ((1 lsl 20) + 1, 1) ]

let gen_shadow_ops =
  let open QCheck.Gen in
  let addr =
    oneofl shadow_objs >>= fun (id, size) ->
    (if id = 0 then oneofl [ 0; 1; big_slot; big_slot + 1 ]
     else int_bound (size - 1))
    >|= fun slot -> (id, slot)
  in
  let strand = int_range (-2) 3 in
  list_size (int_range 1 80)
    (frequency
       [
         (4, map2 (fun (o, s) st -> W (o, s, st)) addr strand);
         (4, map2 (fun (o, s) st -> R (o, s, st)) addr strand);
         (2, return Fence);
         (2, map (fun st -> Begin st) strand);
         (1, map (fun (o, s) -> Written (o, s)) addr);
       ])

let pp_shadow_op = function
  | W (o, s, st) -> Fmt.str "W(%d,%d,%d)" o s st
  | R (o, s, st) -> Fmt.str "R(%d,%d,%d)" o s st
  | Fence -> "F"
  | Begin st -> Fmt.str "B%d" st
  | Written (o, s) -> Fmt.str "E(%d,%d)" o s

let prop_shadow_matches_reference =
  QCheck.Test.make ~name:"shadow: direct-mapped == lock-striped reference"
    ~count:200
    (QCheck.make ~print:(QCheck.Print.list pp_shadow_op) gen_shadow_ops)
    (fun ops ->
      let sh =
        Runtime.Shadow.create ~obj_size:(fun id -> List.assoc id shadow_objs)
      in
      let rf = Ref_shadow.create () in
      let fences = ref 0 and begins = Hashtbl.create 8 in
      let begin_of st = Option.value ~default:0 (Hashtbl.find_opt begins st) in
      List.iteri
        (fun n op ->
          let access strand =
            {
              Runtime.Shadow.strand;
              fence_at = !fences;
              loc = Nvmir.Loc.make ~file:"op" ~line:n;
            }
          in
          let same what a b =
            if a <> b then QCheck.Test.fail_reportf "op %d: %s differs" n what
          in
          match op with
          | W (obj_id, slot, st) ->
            let begin_fence = begin_of st in
            same "write conflicts"
              (Runtime.Shadow.record_write sh ~obj_id ~slot ~begin_fence
                 (access st))
              (Ref_shadow.record_write rf ~obj_id ~slot ~begin_fence
                 (access st))
          | R (obj_id, slot, st) ->
            let begin_fence = begin_of st in
            same "read conflict"
              (Runtime.Shadow.record_read sh ~obj_id ~slot ~begin_fence
                 (access st))
              (Ref_shadow.record_read rf ~obj_id ~slot ~begin_fence
                 (access st))
          | Fence -> incr fences
          | Begin st -> Hashtbl.replace begins st !fences
          | Written (obj_id, slot) ->
            same "ever_written"
              (Runtime.Shadow.ever_written sh ~obj_id ~slot)
              (Ref_shadow.ever_written rf ~obj_id ~slot))
        ops;
      Runtime.Shadow.tracked_cells sh = Ref_shadow.tracked_cells rf)

(* Regression (bugfix): tx_depth used to be checker-global, so one
   client's open transaction misclassified another client's clean
   re-flush as Persist_same_object_in_tx under set_thread
   interleaving. *)
let test_dynamic_tx_depth_per_thread () =
  let pmem = Runtime.Pmem.create () in
  let checker = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  Runtime.Dynamic.attach checker pmem;
  let tenv = Nvmir.Ty.env_create () in
  let o =
    Runtime.Pmem.alloc pmem ~tenv ~persistent:true
      (Nvmir.Ty.Array (Nvmir.Ty.Int, 8))
  in
  (* client 0 opens a transaction... *)
  Runtime.Dynamic.set_thread checker 0;
  Runtime.Pmem.tx_begin pmem ();
  (* ...and client 1's clean re-flush inside its epoch must be reported
     as a redundant write-back, not a same-transaction persist *)
  Runtime.Dynamic.set_thread checker 1;
  Runtime.Pmem.epoch_begin pmem ();
  Runtime.Pmem.write pmem
    { Runtime.Pmem.obj_id = o; slot = 0 }
    (Runtime.Value.Vint 1);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  Runtime.Pmem.epoch_end pmem ();
  Runtime.Dynamic.set_thread checker 0;
  Runtime.Pmem.tx_end pmem ();
  let count rule =
    List.length
      (List.filter
         (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.rule = rule)
         (Runtime.Dynamic.warnings checker))
  in
  check Alcotest.int "classified as redundant write-back" 1
    (count Analysis.Warning.Multiple_flushes);
  check Alcotest.int "not as persist-same-object-in-tx" 0
    (count Analysis.Warning.Persist_same_object_in_tx)

(* Regression (bugfix): the warning cap used to recompute List.length on
   every emission (O(n^2) near the cap); the count is now explicit. The
   observable contract: stored warnings stop at the cap, the summary
   still counts every occurrence, and dropped = overflow. *)
let test_dynamic_warning_count_exact () =
  let pmem = Runtime.Pmem.create () in
  let checker =
    Runtime.Dynamic.create ~max_warnings:10 ~model:Analysis.Model.Epoch ()
  in
  Runtime.Dynamic.attach checker pmem;
  let tenv = Nvmir.Ty.env_create () in
  let o =
    Runtime.Pmem.alloc pmem ~tenv ~persistent:true
      (Nvmir.Ty.Array (Nvmir.Ty.Int, 8))
  in
  Runtime.Pmem.epoch_begin pmem ();
  Runtime.Pmem.write pmem
    { Runtime.Pmem.obj_id = o; slot = 0 }
    (Runtime.Value.Vint 1);
  Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
  Runtime.Pmem.fence pmem ();
  for _ = 1 to 50 do
    Runtime.Pmem.flush_range pmem ~obj_id:o ~first_slot:0 ~nslots:1 ();
    Runtime.Pmem.fence pmem ()
  done;
  Runtime.Pmem.epoch_end pmem ();
  let s = Runtime.Dynamic.summary checker in
  check Alcotest.int "stored at cap" 10
    (List.length (Runtime.Dynamic.warnings checker));
  check Alcotest.int "every occurrence counted" 50
    s.Runtime.Dynamic.warning_count;
  check Alcotest.int "overflow recorded as dropped" 40 s.Runtime.Dynamic.dropped

let suite =
  [
    tc "shadow: scalar ordering" `Quick test_shadow_ordering;
    tc "shadow: WAW detection" `Quick test_shadow_waw_detection;
    tc "shadow: RAW detection" `Quick test_shadow_raw_detection;
    tc "dynamic: WAW race between strands" `Quick test_dynamic_waw_race;
    tc "dynamic: barrier orders strands" `Quick
      test_dynamic_fence_orders_strands;
    tc "dynamic: disjoint strands clean" `Quick test_dynamic_disjoint_strands;
    tc "dynamic: RAW race" `Quick test_dynamic_raw_race;
    tc "dynamic: unflushed at epoch end" `Quick
      test_dynamic_epoch_end_unflushed;
    tc "dynamic: clean epoch" `Quick test_dynamic_epoch_end_clean;
    tc "dynamic: redundant flush tracking" `Quick
      test_dynamic_redundant_flush_classes;
    tc "dynamic: untracked outside regions" `Quick
      test_dynamic_untracked_outside_regions;
    tc "dynamic: warning cap" `Quick test_dynamic_warning_cap;
    tc "shadow: key range validation" `Quick test_shadow_key_range;
    QCheck_alcotest.to_alcotest prop_shadow_matches_reference;
    tc "dynamic: tx_depth is per-thread" `Quick
      test_dynamic_tx_depth_per_thread;
    tc "dynamic: warning count exact under cap" `Quick
      test_dynamic_warning_count_exact;
  ]
