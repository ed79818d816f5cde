(* Differential tests for the concurrent dynamic checker: N clients
   driving their own heaps under one checker (bound listeners, sharded
   shadow segment) must report exactly what a sequential execution of
   the same per-client operation streams reports — same warnings, same
   summary — regardless of domain interleaving. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Synthetic per-client workloads *)

type op = Write of int | Flush of int | Fence | Epoch_begin | Epoch_end

let nslots = 8

(* A client's operation stream: a few epochs, each writing some slots,
   flushing most of them (sometimes redundantly — Multiple_flushes) and
   leaving some volatile at the epoch boundary (Unflushed_write). Fully
   determined by the seed. *)
let gen_client_ops seed =
  let rng = Workloads.Gen.rng seed in
  let epochs = 2 + Workloads.Gen.next_int rng 3 in
  List.concat
    (List.init epochs (fun _ ->
         let writes = 1 + Workloads.Gen.next_int rng 4 in
         let body =
           List.concat
             (List.init writes (fun _ ->
                  let slot = Workloads.Gen.next_int rng nslots in
                  let roll = Workloads.Gen.next_int rng 10 in
                  if roll < 5 then
                    (* flushed write *)
                    [ Write slot; Flush slot; Fence ]
                  else if roll < 8 then
                    (* clean re-flush: redundant write-back *)
                    [ Write slot; Flush slot; Fence; Flush slot; Fence ]
                  else (* left volatile: unflushed at epoch end *)
                    [ Write slot ]))
         in
         (Epoch_begin :: body) @ [ Epoch_end ]))

let apply pmem obj = function
  | Write s ->
    Runtime.Pmem.write pmem
      { Runtime.Pmem.obj_id = obj; slot = s }
      (Runtime.Value.Vint s)
  | Flush s ->
    Runtime.Pmem.flush_range pmem ~obj_id:obj ~first_slot:s ~nslots:1 ()
  | Fence -> Runtime.Pmem.fence pmem ()
  | Epoch_begin -> Runtime.Pmem.epoch_begin pmem ()
  | Epoch_end -> Runtime.Pmem.epoch_end pmem ()

(* Execute the per-client streams under one checker; [parallel] selects
   pool domains vs a plain sequential loop over the same contexts. *)
let run ~parallel ops_per_client =
  let nclients = List.length ops_per_client in
  let checker = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  let contexts =
    List.mapi
      (fun c ops ->
        let pmem =
          Runtime.Pmem.create
            ~first_obj_id:(c * Deepmc.Driver.client_obj_id_stride)
            ~obj_id_limit:((c + 1) * Deepmc.Driver.client_obj_id_stride)
            ()
        in
        Runtime.Dynamic.attach_client checker ~thread:c pmem;
        let tenv = Nvmir.Ty.env_create () in
        let obj =
          Runtime.Pmem.alloc pmem ~tenv ~persistent:true
            (Nvmir.Ty.Array (Nvmir.Ty.Int, nslots))
        in
        (pmem, obj, ops))
      ops_per_client
  in
  let exec (pmem, obj, ops) = List.iter (apply pmem obj) ops in
  if parallel then
    ignore (Pool.map ~domains:nclients ~chunk:1 (Pool.default ()) exec contexts)
  else List.iter exec contexts;
  (Runtime.Dynamic.warnings checker, Runtime.Dynamic.summary checker)

let warning_keys ws =
  List.map
    (fun (w : Analysis.Warning.t) ->
      (Analysis.Warning.rule_name w.Analysis.Warning.rule,
       w.Analysis.Warning.message))
    ws

let summary_tuple (s : Runtime.Dynamic.summary) =
  ( s.Runtime.Dynamic.waw,
    s.Runtime.Dynamic.raw,
    s.Runtime.Dynamic.unflushed,
    s.Runtime.Dynamic.redundant,
    s.Runtime.Dynamic.tracked_cells,
    s.Runtime.Dynamic.warning_count )

let client_streams seed nclients =
  List.init nclients (fun c -> gen_client_ops ((seed * 31) + c))

(* ------------------------------------------------------------------ *)
(* Directed tests *)

let test_parallel_equals_sequential_directed () =
  let ops = client_streams 7 3 in
  let ws_seq, s_seq = run ~parallel:false ops in
  let ws_par, s_par = run ~parallel:true ops in
  check
    Alcotest.(list (pair string string))
    "same warnings" (warning_keys ws_seq) (warning_keys ws_par);
  check
    Alcotest.(pair (pair int int) (pair (pair int int) (pair int int)))
    "same summary"
    (let a, b, c, d, e, f = summary_tuple s_seq in
     ((a, b), ((c, d), (e, f))))
    (let a, b, c, d, e, f = summary_tuple s_par in
     ((a, b), ((c, d), (e, f))))

let test_parallel_run_deterministic () =
  let ops = client_streams 11 4 in
  let ws1, _ = run ~parallel:true ops in
  let ws2, _ = run ~parallel:true ops in
  check
    Alcotest.(list (pair string string))
    "identical across runs" (warning_keys ws1) (warning_keys ws2)

(* Warnings from all client threads aggregate into one report. *)
let test_warnings_aggregate_across_clients () =
  (* every client performs exactly one clean re-flush *)
  let redundant_epoch =
    [ Epoch_begin; Write 0; Flush 0; Fence; Flush 0; Fence; Epoch_end ]
  in
  let ws, s = run ~parallel:true [ redundant_epoch; redundant_epoch ] in
  check Alcotest.int "one redundant flush per client" 2
    s.Runtime.Dynamic.redundant;
  check Alcotest.int "both warnings stored" 2 (List.length ws);
  (* disjoint object-id ranges: the two warnings name different objects *)
  match warning_keys ws with
  | [ (r1, m1); (r2, m2) ] ->
    check Alcotest.string "same rule" r1 r2;
    check Alcotest.bool "distinct heaps" true (m1 <> m2)
  | _ -> Alcotest.fail "expected exactly two warnings"

(* Driver end-to-end: N client domains executing the entry report the
   same deduplicated (rule, line) set as the single-domain run. *)
let test_driver_clients_differential () =
  let src =
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
  store p->g, 2
  epoch_end
  ret
}
|}
  in
  let prog = Nvmir.Parser.parse src in
  let driver = Deepmc.Driver.make Analysis.Model.Epoch in
  let keys (r : Deepmc.Driver.report) =
    List.sort_uniq compare
      (List.map
         (fun (w : Analysis.Warning.t) ->
           (Analysis.Warning.rule_name w.Analysis.Warning.rule,
            w.Analysis.Warning.loc.Nvmir.Loc.line))
         r.Deepmc.Driver.warnings)
  in
  let r1 = Deepmc.Driver.analyze driver ~entry:"main" prog in
  let r4 = Deepmc.Driver.analyze driver ~entry:"main" ~clients:4 prog in
  (match r4.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_ok s ->
    check Alcotest.bool "cells tracked in all client heaps" true
      (s.Runtime.Dynamic.tracked_cells > 0)
  | Deepmc.Driver.Dynamic_skipped reason ->
    Alcotest.fail ("dynamic skipped: " ^ reason));
  check
    Alcotest.(list (pair string int))
    "deduplicated warnings agree" (keys r1) (keys r4)

(* ------------------------------------------------------------------ *)
(* Property: for random seeds and client counts, the parallel checker
   reports the same warning multiset as the sequential engine. *)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel checker == sequential engine" ~count:25
    QCheck.(pair (map abs small_int) (int_range 1 5))
    (fun (seed, nclients) ->
      let ops = client_streams seed nclients in
      let ws_seq, s_seq = run ~parallel:false ops in
      let ws_par, s_par = run ~parallel:true ops in
      if warning_keys ws_seq <> warning_keys ws_par then
        QCheck.Test.fail_reportf
          "warning mismatch for seed %d, %d client(s): %d sequential vs %d \
           parallel"
          seed nclients (List.length ws_seq) (List.length ws_par);
      if summary_tuple s_seq <> summary_tuple s_par then
        QCheck.Test.fail_reportf
          "summary mismatch for seed %d, %d client(s): %a vs %a" seed nclients
          Runtime.Dynamic.pp_summary s_seq Runtime.Dynamic.pp_summary s_par;
      true)

(* ------------------------------------------------------------------ *)
(* Overlapping client heap id windows must be rejected at attachment:
   two heaps handing out the same object ids under one checker would
   silently alias shadow-segment keys (client A's cells masking B's). *)

let test_overlapping_heap_ranges_rejected () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  (* same window twice: rejected *)
  let ck = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  Runtime.Dynamic.attach_client ck ~thread:0 (Runtime.Pmem.create ());
  check Alcotest.bool "identical unbounded windows rejected" true
    (raises (fun () ->
         Runtime.Dynamic.attach_client ck ~thread:1 (Runtime.Pmem.create ())));
  (* unbounded tail overlapping a later client's window: rejected *)
  let ck = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  Runtime.Dynamic.attach_client ck ~thread:0 (Runtime.Pmem.create ());
  check Alcotest.bool "unbounded window swallows later stride" true
    (raises (fun () ->
         Runtime.Dynamic.attach_client ck ~thread:1
           (Runtime.Pmem.create ~first_obj_id:1024 ~obj_id_limit:2048 ())));
  (* disjoint strides: accepted *)
  let ck = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  List.iter
    (fun c ->
      Runtime.Dynamic.attach_client ck ~thread:c
        (Runtime.Pmem.create ~first_obj_id:(c * 1024)
           ~obj_id_limit:((c + 1) * 1024) ()))
    [ 0; 1; 2; 3 ];
  (* a bounded heap refuses to allocate past its window instead of
     spilling into the neighbour's *)
  let pm = Runtime.Pmem.create ~first_obj_id:0 ~obj_id_limit:2 () in
  let tenv = Nvmir.Ty.env_create () in
  ignore (Runtime.Pmem.alloc pm ~tenv ~persistent:true Nvmir.Ty.Int);
  ignore (Runtime.Pmem.alloc pm ~tenv ~persistent:true Nvmir.Ty.Int);
  check Alcotest.bool "alloc past the id window rejected" true
    (raises (fun () ->
         Runtime.Pmem.alloc pm ~tenv ~persistent:true Nvmir.Ty.Int))

let suite =
  [
    tc "parallel == sequential (directed)" `Quick
      test_parallel_equals_sequential_directed;
    tc "overlapping heap ranges rejected" `Quick
      test_overlapping_heap_ranges_rejected;
    tc "parallel run deterministic" `Quick test_parallel_run_deterministic;
    tc "warnings aggregate across clients" `Quick
      test_warnings_aggregate_across_clients;
    tc "driver --clients differential" `Quick test_driver_clients_differential;
    QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
  ]
