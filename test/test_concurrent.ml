(* Differential tests for the concurrent dynamic checker: N clients
   driving their own heaps under one checker (bound listeners, one shadow
   segment per heap) must report exactly what a sequential execution of
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

(* Object ids reserved per client heap. *)
let stride = 1 lsl 20

(* Execute the per-client streams under one checker; [parallel] selects
   pool domains vs a plain sequential loop over the same contexts. *)
let run ~parallel ops_per_client =
  let nclients = List.length ops_per_client in
  let checker = Runtime.Dynamic.create ~model:Analysis.Model.Epoch () in
  let contexts =
    List.mapi
      (fun c ops ->
        let pmem =
          Runtime.Pmem.create ~first_obj_id:(c * stride)
            ~obj_id_limit:((c + 1) * stride) ()
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

(* Every corpus, recovery-corpus and example program, with the model,
   entry and arguments the driver runs it with (an example under every
   model). *)
let driver_programs () =
  let corpus =
    List.map
      (fun (p : Corpus.Types.program) ->
        ( p.Corpus.Types.name,
          Corpus.Types.model p,
          p.Corpus.Types.entry,
          p.Corpus.Types.entry_args,
          Corpus.Types.parse p ))
      (Corpus.Registry.all @ Corpus.Recovery.programs)
  in
  let examples =
    List.mapi
      (fun i src ->
        let prog = Nvmir.Parser.parse src in
        List.map
          (fun model ->
            let name = Fmt.str "example %d (%a)" i Analysis.Model.pp model in
            (name, model, "main", [], prog))
          Analysis.Model.all)
      Test_parser.example_sources
  in
  corpus @ List.concat examples

(* Driver end-to-end: three clients run the entry in client order on one
   heap under one checker, so every program reports the one-client
   run's warnings, word for word (the merged report and the dynamic
   tier's, deduplicated, whose messages name object ids), and three
   times each of its dynamic summary counts. *)
let test_driver_clients_differential () =
  let render ws = Fmt.str "%a" Fmt.(list Analysis.Warning.pp) ws in
  let dynamic (r : Deepmc.Driver.report) =
    render
      Analysis.Warning.(dedup (sort r.Deepmc.Driver.dynamic_warnings))
  in
  let counts (s : Runtime.Dynamic.summary) =
    Runtime.Dynamic.
      [ s.waw; s.raw; s.unflushed; s.redundant; s.tracked_cells;
        s.warning_count; s.dropped ]
  in
  let programs = driver_programs () in
  check Alcotest.bool "corpus, recovery corpus and examples" true
    (List.length programs >= 20 + 6);
  List.iter
    (fun (name, model, entry, args, prog) ->
      let driver = Deepmc.Driver.make model in
      let run clients =
        Deepmc.Driver.analyze driver ~entry ~args ~clients prog
      in
      let r1 = run 1 and r3 = run 3 in
      check Alcotest.string (name ^ ": merged warnings")
        (render r1.Deepmc.Driver.warnings) (render r3.Deepmc.Driver.warnings);
      check Alcotest.string (name ^ ": dynamic warnings") (dynamic r1)
        (dynamic r3);
      match (r1.Deepmc.Driver.dynamic, r3.Deepmc.Driver.dynamic) with
      | Deepmc.Driver.Dynamic_ok s1, Deepmc.Driver.Dynamic_ok s3 ->
        check Alcotest.(list int) (name ^ ": summary counts x3")
          (List.map (( * ) 3) (counts s1)) (counts s3)
      | Deepmc.Driver.Dynamic_skipped reason, Deepmc.Driver.Dynamic_skipped r ->
        check Alcotest.string (name ^ ": failure names client 0")
          ("client 0: " ^ reason) r
      | _ -> Alcotest.failf "%s: one run failed, the other did not" name)
    programs

(* A multi-client crash tier reads the one execution of all clients: two
   runs of hashmap's main in order have twice its crash points, from
   one recording. *)
let test_driver_clients_one_recording () =
  let prog =
    Nvmir.Parser.parse_file
      (Filename.concat Test_crash_oracle.examples_dir "hashmap.nvmir")
  in
  let points clients =
    let r =
      Deepmc.Driver.analyze
        (Deepmc.Driver.make Analysis.Model.Strict)
        ~entry:"main" ~clients ~explore_crash_images:true prog
    in
    match r.Deepmc.Driver.crash_space with
    | Some cs -> cs.Runtime.Crash_space.crash_points
    | None -> Alcotest.fail "crash tier skipped"
  in
  check Alcotest.int "one client" 6 (points 1);
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  let two =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> points 2)
  in
  let executions =
    Option.fold ~none:0 ~some:Obs.Metrics.int_of_value
      (Obs.Metrics.find (Obs.Metrics.snapshot ()) "crash.executions")
  in
  Obs.Metrics.reset ();
  check Alcotest.int "two clients, in order" 12 two;
  check Alcotest.int "one recorded execution" 1 executions

(* The client conventions: [fuzz_setup] runs once and shares its
   allocation, and each client enters its own [fuzz_client_<c>]. Client
   1 reads the field client 0 stored and never flushed. *)
let conventions_src =
  {|
struct cell { a: int, b: int }
struct log { n: int }
func fuzz_setup() -> ptr cell {
entry:
  l = alloc pmem log
  epoch_begin
  store l->n, 1
  flush exact l->n
  fence
  epoch_end
  c = alloc pmem cell
  ret c
}
func fuzz_client_0(c: ptr cell) {
entry:
  epoch_begin
  store c->a, 7 @ conv.c:16
  epoch_end
  ret
}
func fuzz_client_1(c: ptr cell) {
entry:
  epoch_begin
  x = load c->a @ conv.c:23
  store c->b, x
  flush exact c->b
  fence
  epoch_end
  ret
}
func main() {
entry:
  ret
}
|}

let test_driver_clients_conventions () =
  let prog = Nvmir.Parser.parse conventions_src in
  let model = Analysis.Model.Epoch in
  let r =
    Deepmc.Driver.analyze (Deepmc.Driver.make model) ~entry:"main" ~clients:2
      prog
  in
  (match r.Deepmc.Driver.dynamic with
  | Deepmc.Driver.Dynamic_ok s ->
    (* setup's log slot once, then the cell field each client's own
       entry writes *)
    check Alcotest.int "one setup, both client entries" 3
      s.Runtime.Dynamic.tracked_cells
  | Deepmc.Driver.Dynamic_skipped reason ->
    Alcotest.fail ("dynamic skipped: " ^ reason));
  let keys ws =
    List.sort_uniq compare
      (List.map (Fmt.str "%a" Analysis.Warning.pp) ws)
  in
  let r_dyn = r.Deepmc.Driver.dynamic_warnings in
  let driver = keys r_dyn in
  let rule r =
    List.exists
      (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.rule = r)
      r_dyn
  in
  check Alcotest.bool "client 1 reads client 0's store: RAW race" true
    (rule Analysis.Warning.Strand_dependence);
  check Alcotest.bool "client 0's store unflushed at its epoch end" true
    (rule Analysis.Warning.Unflushed_write);
  let fuzz =
    keys
      (Fuzz.Exec.run ~prog ~model ~entry:"main" ~clients:2
         ~genome:Fuzz.Genome.initial ())
        .Fuzz.Exec.warnings
  in
  List.iter
    (fun w ->
      check Alcotest.bool ("also under the initial genome: " ^ w) true
        (List.mem w fuzz))
    driver

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
   make their warnings name the same objects (client A's obj5 and B's
   dedup into one warning). *)

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
    tc "driver --clients one recording" `Quick
      test_driver_clients_one_recording;
    tc "driver --clients conventions" `Quick test_driver_clients_conventions;
    QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
  ]
