(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-9, Figures 10-12, 5.1/5.3/5.4), the ablations
   DESIGN.md calls out, and the injection, recovery and fuzzing
   campaigns whose artifacts the `make verify` gates check. Speed claims
   come from the repo benchmark in bench/e2e, not from here.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one experiment
     DEEPMC_BENCH_TXS=1000000 dune exec bench/main.exe figure12

   Paper numbers are printed next to measured ones where the paper
   reports concrete values; EXPERIMENTS.md records the comparison. *)

(* Every environment knob is read here: unset gives the caller's
   default, and a value that is not an integer stops the run (exit 2)
   naming the variable instead of silently running the default. *)
let env_int name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Fmt.epr "%s: expected an integer, got %S@." name s;
      exit 2)

let txs = env_int "DEEPMC_BENCH_TXS" ~default:60_000

(* DEEPMC_BENCH_SEED reproduces a randomized section: Figure 12's client
   request streams default to the harness seed, the injection, recovery
   and fuzzing campaigns to 1. *)
let bench_seed ~default = env_int "DEEPMC_BENCH_SEED" ~default

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let hr () = Fmt.pr "%s@." (String.make 96 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: detected persistency bugs per framework and bug class *)

let paper_table1 : (Analysis.Warning.rule_id * (int * int) option list) list =
  let open Analysis.Warning in
  (* cells in framework order PMDK, NVM-Direct, PMFS, Mnemosyne *)
  [
    (Multiple_writes_at_once, [ None; None; Some (1, 2); None ]);
    (Unflushed_write, [ Some (1, 2); Some (1, 1); None; Some (1, 1) ]);
    (Missing_persist_barrier, [ Some (2, 2); Some (2, 2); None; None ]);
    (Missing_barrier_nested_tx, [ None; None; Some (1, 1); None ]);
    (Semantic_mismatch, [ Some (6, 7); None; None; None ]);
    (Multiple_flushes, [ Some (3, 4); Some (1, 1); Some (3, 3); Some (1, 1) ]);
    (Flush_unmodified, [ Some (3, 3); Some (2, 3); Some (4, 5); None ]);
    (Persist_same_object_in_tx, [ Some (3, 3); None; None; Some (2, 2) ]);
    (Durable_tx_no_writes, [ Some (5, 5); Some (1, 2); None; None ]);
  ]

let cell v w = if w = 0 then "-" else Fmt.str "%d/%d" v w

let table1 () =
  section "Table 1: validated bugs / warnings per framework and bug class";
  let totals = Corpus.Registry.table1 () in
  Fmt.pr "%-55s" "Bug class";
  List.iter
    (fun t ->
      Fmt.pr "%-12s" (Corpus.Types.framework_name t.Corpus.Registry.framework))
    totals;
  Fmt.pr "@.";
  hr ();
  List.iter
    (fun rule ->
      if rule <> Analysis.Warning.Strand_dependence then begin
        Fmt.pr "%-55s" (Analysis.Warning.rule_description rule);
        List.iter
          (fun t ->
            let v, w =
              Option.value ~default:(0, 0)
                (List.assoc_opt rule t.Corpus.Registry.per_rule)
            in
            Fmt.pr "%-12s" (cell v w))
          totals;
        let paper =
          match List.assoc_opt rule paper_table1 with
          | None -> ""
          | Some cells ->
            String.concat " "
              (List.map
                 (function None -> "-" | Some (v, w) -> Fmt.str "%d/%d" v w)
                 cells)
        in
        Fmt.pr "  (paper: %s)@." paper
      end)
    Analysis.Warning.all_rules;
  hr ();
  Fmt.pr "%-55s" "Total";
  List.iter
    (fun t ->
      Fmt.pr "%-12s" (cell t.Corpus.Registry.validated t.Corpus.Registry.warnings))
    totals;
  Fmt.pr "  (paper: 23/26 7/9 9/11 4/4)@.";
  let v = List.fold_left (fun a t -> a + t.Corpus.Registry.validated) 0 totals in
  let w = List.fold_left (fun a t -> a + t.Corpus.Registry.warnings) 0 totals in
  Fmt.pr "Overall: %d validated / %d warnings (paper: 43/50)@." v w

(* ------------------------------------------------------------------ *)
(* Table 2: studied bugs per framework *)

let table2 () =
  section "Table 2: number of persistency bugs studied";
  Fmt.pr "%-15s %-22s %-18s %-10s@." "Framework" "Model-violation bugs"
    "Performance bugs" "Total";
  hr ();
  let studied = Corpus.Registry.studied_bugs () in
  let frameworks =
    [ Corpus.Types.Pmdk; Corpus.Types.Pmfs; Corpus.Types.Nvm_direct ]
  in
  let tv = ref 0 and tp = ref 0 in
  List.iter
    (fun fw ->
      let of_fw =
        List.filter
          (fun ((p : Corpus.Types.program), _, _) ->
            p.Corpus.Types.framework = fw)
          studied
      in
      let v =
        List.length
          (List.filter (fun (_, e, _) -> Corpus.Registry.is_violation e) of_fw)
      in
      let p = List.length of_fw - v in
      tv := !tv + v;
      tp := !tp + p;
      Fmt.pr "%-15s %-22d %-18d %-10d@." (Corpus.Types.framework_name fw) v p
        (v + p))
    frameworks;
  hr ();
  Fmt.pr "%-15s %-22d %-18d %-10d  (paper: 9 + 10 = 19)@." "Total" !tv !tp
    (!tv + !tp)

(* ------------------------------------------------------------------ *)
(* Table 3: the studied-bug list *)

let pp_bug_row (p : Corpus.Types.program) (e : Deepmc.Report.expectation) =
  Fmt.pr "%-12s %-22s %5d  %-4s [%s] %s@."
    (Corpus.Types.framework_name p.Corpus.Types.framework)
    e.Deepmc.Report.file e.Deepmc.Report.line
    (match e.Deepmc.Report.location_kind with
    | Deepmc.Report.Lib -> "LIB"
    | Deepmc.Report.Example -> "EP")
    (match Analysis.Warning.category_of_rule e.Deepmc.Report.rule with
    | Analysis.Warning.Model_violation -> "V"
    | Analysis.Warning.Performance -> "P")
    e.Deepmc.Report.description

let table3 () =
  section "Table 3: persistency bugs studied (ground truth)";
  Fmt.pr "%-12s %-22s %5s  %-4s cat description@." "Framework" "File" "Line"
    "Loc";
  hr ();
  List.iter (fun (p, e, _) -> pp_bug_row p e) (Corpus.Registry.studied_bugs ())

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5: the rule catalogs *)

let print_rules category =
  List.iter
    (fun (m : Analysis.Rules.rule_meta) ->
      if Analysis.Warning.category_of_rule m.Analysis.Rules.id = category then
        Fmt.pr "@[<v 2>%-28s (models: %a)@ %s@]@."
          (Analysis.Warning.rule_description m.Analysis.Rules.id)
          Fmt.(list ~sep:(any ", ") Analysis.Model.pp)
          m.Analysis.Rules.models m.Analysis.Rules.statement)
    Analysis.Rules.catalog

let table4 () =
  section "Table 4: checking rules for persistency-model violations";
  print_rules Analysis.Warning.Model_violation

let table5 () =
  section "Table 5: checking rules for performance bugs";
  print_rules Analysis.Warning.Performance

(* ------------------------------------------------------------------ *)
(* Table 6: benchmarks *)

let table6 () =
  section "Table 6: application benchmarks";
  Fmt.pr "%-12s %-22s %s@." "Application" "Library" "Benchmark";
  hr ();
  Fmt.pr "%-12s %-22s %s@." "Memcached" "Mnemosyne (epoch)"
    (Fmt.str "memslap-style mixes (%d transactions, 4 clients)" txs);
  Fmt.pr "%-12s %-22s %s@." "Redis" "PMDK (epoch AOF)"
    (Fmt.str "redis-benchmark command mix (%d transactions, 50 clients)" txs);
  Fmt.pr "%-12s %-22s %s@." "NStore" "Low-level implts"
    (Fmt.str "YCSB A-F (%d transactions, 4 clients)" txs);
  Fmt.pr
    "(paper: 1M transactions each; set DEEPMC_BENCH_TXS=1000000 to match)@."

(* ------------------------------------------------------------------ *)
(* Table 7: system configuration *)

let table7 () =
  section "Table 7: system configuration";
  List.iter
    (fun (k, v) -> Fmt.pr "%-18s %s@." k v)
    (Runtime.Config.describe Runtime.Config.default);
  Fmt.pr "%-18s %s@." "Host"
    (Fmt.str "%s, OCaml %s, word size %d" Sys.os_type Sys.ocaml_version
       Sys.word_size)

(* ------------------------------------------------------------------ *)
(* Table 8: new bugs *)

let table8 () =
  section "Table 8: new persistency bugs detected by DeepMC";
  Fmt.pr "%-12s %-22s %5s  %-8s %-16s %-6s %s@." "Framework" "File" "Line"
    "Found by" "Consequence" "Years" "Description";
  hr ();
  let news = Corpus.Registry.new_bugs () in
  List.iter
    (fun ((p : Corpus.Types.program), (e : Deepmc.Report.expectation), d) ->
      Fmt.pr "%-12s %-22s %5d  %-8s %-16s %-6.1f %s@."
        (Corpus.Types.framework_name p.Corpus.Types.framework)
        e.Deepmc.Report.file e.Deepmc.Report.line
        (match d with
        | Corpus.Types.Static_analysis -> "static"
        | Corpus.Types.Dynamic_analysis -> "dynamic")
        (if Corpus.Registry.is_violation e then "Model Violation"
         else "Perf. Overhead")
        e.Deepmc.Report.years e.Deepmc.Report.description)
    news;
  hr ();
  let n_static =
    List.length
      (List.filter (fun (_, _, d) -> d = Corpus.Types.Static_analysis) news)
  in
  let n_dyn = List.length news - n_static in
  let n_viol =
    List.length
      (List.filter (fun (_, e, _) -> Corpus.Registry.is_violation e) news)
  in
  let years =
    List.fold_left (fun a (_, e, _) -> a +. e.Deepmc.Report.years) 0. news
    /. float_of_int (List.length news)
  in
  Fmt.pr
    "%d new bugs: %d static + %d dynamic (paper: 18 + 6); %d violations + %d \
     performance (paper: 8 + 16); mean age %.1f years (paper: 5.4)@."
    (List.length news) n_static n_dyn n_viol
    (List.length news - n_viol)
    years

(* ------------------------------------------------------------------ *)
(* Table 9: analysis ("compilation") time on application-sized programs *)

let table9 () =
  section "Table 9: analysis time, baseline front end vs. DeepMC";
  Fmt.pr "%-12s %12s %14s %12s   (paper: baseline -> with DeepMC)@."
    "Benchmark" "front (ms)" "+DeepMC (ms)" "extra (ms)";
  hr ();
  let apps =
    [
      ("Memcached", 130, "8.5 s -> 11.9 s");
      ("Redis", 700, "54.9 s -> 62.4 s");
      ("NStore", 400, "31.9 s -> 35.6 s");
    ]
  in
  List.iter
    (fun (name, nfuncs, paper) ->
      let cfg = { Corpus.Synth.default_config with nfuncs; seed = 11 } in
      let prog, _ = Corpus.Synth.generate cfg in
      let base_s = Deepmc.Driver.baseline_compile prog in
      let t0 = Deepmc.Clock.now () in
      let _ =
        Analysis.Checker.check ~roots:(Corpus.Synth.roots cfg)
          ~model:Analysis.Model.Strict prog
      in
      let full_s = Deepmc.Clock.elapsed_s t0 in
      Fmt.pr "%-12s %12.1f %14.1f %12.1f   (%s)@." name (base_s *. 1000.)
        ((base_s +. full_s) *. 1000.)
        (full_s *. 1000.)
        paper)
    apps;
  Fmt.pr
    "(programs are generated IR sized to the applications; the paper adds \
     3.4-7.5 s of checking to clang builds of C codebases -- the shape that \
     carries over is that DeepMC's whole-program checking stays within \
     interactive compile-time budgets)@."

(* ------------------------------------------------------------------ *)
(* Figure 10: the DSG of nvm_lock *)

let figure10 () =
  section "Figure 10: DSG created for the nvm_lock function";
  match Corpus.Registry.find "nvm_locks" with
  | None -> Fmt.pr "corpus program nvm_locks missing@."
  | Some p ->
    let prog = Corpus.Types.parse p in
    let dsg = Dsa.Dsg.build prog in
    Fmt.pr "%a@." Dsa.Dsg.pp_function_view (dsg, "nvm_lock")

(* ------------------------------------------------------------------ *)
(* Figure 11: interprocedural operations on traces *)

let figure11 () =
  section "Figure 11: interprocedural trace merging (nvm_free_callback)";
  match Corpus.Registry.find "nvm_heap" with
  | None -> Fmt.pr "corpus program nvm_heap missing@."
  | Some p ->
    let prog = Corpus.Types.parse p in
    let dsg = Dsa.Dsg.build prog in
    let show (_, ts) = List.iter (Fmt.pr "%a@." Analysis.Trace.pp) ts in
    (* a function's own traces, call marks unexpanded: collect it as the
       only function of a program, so there is no callee to splice *)
    let intra_of name =
      match Nvmir.Prog.find_func prog name with
      | None -> ()
      | Some f ->
        let alone = Nvmir.Prog.create () in
        Nvmir.Prog.add_func alone f;
        List.iter show (Analysis.Trace.collect dsg alone)
    in
    Fmt.pr "-- callee trace (nvm_free_blk):@.";
    intra_of "nvm_free_blk";
    Fmt.pr "-- caller trace before merging (nvm_free_callback):@.";
    intra_of "nvm_free_callback";
    Fmt.pr "-- merged trace from the driver root:@.";
    List.iter show
      (Analysis.Trace.collect dsg prog ~roots:[ "nvm_heap_driver_free" ])

(* ------------------------------------------------------------------ *)
(* Figure 12: runtime overhead of the dynamic analysis *)

let paper_bands =
  [ ("Memcached", (1.7, 14.2)); ("Redis", (2.5, 16.1)); ("NStore", (3.12, 15.7)) ]

(* Render an overhead bar: one '#' per half percent, capped at 60. *)
let bar pct =
  let n = max 0 (min 60 (int_of_float (pct *. 2.))) in
  String.make n '#'

(* Client-domain scaling of the pool-driven harness: the same workload
   and transaction count at 1 client vs N. On a single-core host the
   pool degrades to sequential in-submitter execution and the speedup
   stays ~1x; the measurement is recorded either way. *)
let figure12_scaling ~seed =
  let mix = List.hd Workloads.Memslap.mixes in
  let label, _ = mix in
  let clients = 4 in
  let run n =
    (Workloads.Memslap.comparison ~seed ~clients:n ~txs mix)
      .Workloads.Harness.baseline
      .Workloads.Harness.throughput
  in
  let tps1 = run 1 in
  let tpsn = run clients in
  (label, clients, tps1, tpsn, tpsn /. tps1)

let figure12 ?(json = false) () =
  let seed = bench_seed ~default:Workloads.Harness.default_seed in
  section "Figure 12: throughput impact of the dynamic analysis";
  Fmt.pr "execution: concurrent client domains on the shared pool (%d)@."
    (Pool.default_size ());
  let series =
    [
      ( "Memcached", 4,
        List.map
          (fun m -> Workloads.Memslap.comparison ~seed ~clients:4 ~txs m)
          Workloads.Memslap.mixes );
      ( "Redis", 50,
        List.map
          (fun m ->
            Workloads.Redis_bench.comparison ~seed ~clients:50 ~txs m)
          Workloads.Redis_bench.mixes );
      ( "NStore", 4,
        List.map
          (fun m -> Workloads.Ycsb.comparison ~seed ~clients:4 ~txs m)
          Workloads.Ycsb.mixes );
    ]
  in
  List.iter
    (fun (app, _clients, comps) ->
      Fmt.pr "@.%s (%d transactions per mix):@." app txs;
      List.iter
        (fun c -> Fmt.pr "  %a@." Workloads.Harness.pp_comparison c)
        comps;
      Fmt.pr "  overhead (%% of baseline throughput):@.";
      List.iter
        (fun (c : Workloads.Harness.comparison) ->
          Fmt.pr "    %-28s |%-32s| %5.1f%%@."
            c.Workloads.Harness.baseline.Workloads.Harness.label
            (bar c.Workloads.Harness.overhead_pct)
            c.Workloads.Harness.overhead_pct)
        comps;
      let ovs = List.map (fun c -> c.Workloads.Harness.overhead_pct) comps in
      let lo = List.fold_left min infinity ovs
      and hi = List.fold_left max neg_infinity ovs in
      let plo, phi = List.assoc app paper_bands in
      Fmt.pr
        "  measured overhead band: %.1f%% .. %.1f%% (paper: %.1f%% .. %.1f%%)@."
        (max 0. lo) hi plo phi)
    series;
  let scale_mix, scale_clients, tps1, tpsn, speedup = figure12_scaling ~seed in
  Fmt.pr "@.client-domain scaling (%s, %d tx baseline, no checker):@."
    scale_mix txs;
  Fmt.pr "  1 client:  %10.0f tx/s@." tps1;
  Fmt.pr "  %d clients: %10.0f tx/s (%.2fx)@." scale_clients tpsn speedup;
  if Pool.recommended_size () = 1 then
    Fmt.pr
      "  (single-core host: the pool runs client tasks sequentially, so \
       ~1x is expected here)@.";
  if json then begin
    let all_overheads =
      List.concat_map
        (fun (_, _, comps) ->
          List.map (fun c -> c.Workloads.Harness.overhead_pct) comps)
        series
    in
    let band_lo = List.fold_left min infinity all_overheads
    and band_hi = List.fold_left max neg_infinity all_overheads in
    (* a small telemetry-enabled probe run, separate from the measured
       comparisons above so the shadow/lock counters cost nothing there *)
    let telemetry =
      Obs.Metrics.reset ();
      Obs.set_enabled true;
      ignore
        (Workloads.Memslap.comparison ~seed ~clients:4
           ~txs:(min txs 2000) (List.hd Workloads.Memslap.mixes));
      Obs.set_enabled false;
      Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ())
    in
    let oc = open_out "BENCH_dynamic.json" in
    let mix_obj app (c : Workloads.Harness.comparison) =
      Fmt.str
        "    {\"app\": \"%s\", \"label\": \"%s\", \"clients\": %d, \
         \"baseline_tps\": %.0f, \"checked_tps\": %.0f, \"overhead_pct\": \
         %.2f}"
        app c.Workloads.Harness.baseline.Workloads.Harness.label
        c.Workloads.Harness.baseline.Workloads.Harness.clients
        c.Workloads.Harness.baseline.Workloads.Harness.throughput
        c.Workloads.Harness.with_checker.Workloads.Harness.throughput
        c.Workloads.Harness.overhead_pct
    in
    let mixes_json =
      List.concat_map
        (fun (app, _, comps) -> List.map (mix_obj app) comps)
        series
      |> String.concat ",\n"
    in
    Printf.fprintf oc
      "{\n\
       \  \"txs\": %d,\n\
       \  \"pool_domains\": %d,\n\
       \  \"mixes\": [\n\
       %s\n\
       \  ],\n\
       \  \"overhead_band_pct\": {\"min\": %.2f, \"max\": %.2f},\n\
       \  \"paper_band_pct\": {\"min\": 1.7, \"max\": 16.1},\n\
       \  \"scaling\": {\"mix\": \"%s\", \"txs\": %d, \"clients\": %d, \
       \"baseline_tps\": [%.0f, %.0f], \"speedup\": %.2f},\n\
       \  \"telemetry\": %s\n\
       }\n"
      txs (Pool.default_size ()) mixes_json (max 0. band_lo) band_hi scale_mix
      txs scale_clients tps1 tpsn speedup
      (Deepmc.Json_report.to_string telemetry);
    close_out oc;
    Fmt.pr "wrote BENCH_dynamic.json@."
  end

(* ------------------------------------------------------------------ *)
(* Fixing the performance bugs improves application performance (5.1) *)

let perffix () =
  section "Performance-bug fixes: buggy vs fixed (5.1)";
  Fmt.pr
    "Cost-model cycles of the persistence operations, for the corpus@.\
     programs whose warnings are dominated by performance bugs:@.@.";
  Fmt.pr "%-22s %12s %12s %10s@." "program" "buggy (cyc)" "fixed (cyc)"
    "improved";
  hr ();
  (* programs whose fixed variant removes redundant persistence work;
     correctness fixes (added fences/logging) cost cycles and are not
     performance fixes, so they are excluded like in the paper *)
  let perf_programs =
    [ "pminvaders"; "rbtree_map"; "nvm_heap"; "nvm_locks"; "pmfs_xip";
      "pmfs_super"; "chhash"; "chash" ]
  in
  List.iter
    (fun name ->
      match Corpus.Registry.find name with
      | None -> ()
      | Some p ->
        (match Corpus.Types.parse_fixed p with
        | None -> ()
        | Some fixed_prog ->
          if Nvmir.Prog.find_func fixed_prog p.Corpus.Types.entry <> None
          then begin
            let run prog =
              let pmem = Runtime.Pmem.create () in
              let interp = Runtime.Interp.create ~pmem prog in
              (try
                 ignore
                   (Runtime.Interp.run ~entry:p.Corpus.Types.entry
                      ~args:p.Corpus.Types.entry_args interp)
               with Runtime.Interp.Runtime_error _ -> ());
              (Runtime.Pmem.stats pmem).Runtime.Pmem.cycles
            in
            let buggy_c = run (Corpus.Types.parse p) in
            let fixed_c = run fixed_prog in
            let improved =
              100. *. (1. -. (float_of_int fixed_c /. float_of_int buggy_c))
            in
            Fmt.pr "%-22s %12d %12d %9.1f%%@." p.Corpus.Types.name buggy_c
              fixed_c improved
          end))
    perf_programs;
  hr ();
  (* application-level: a key-value store whose set operation carries a
     redundant whole-entry flush (the Table 5 "multiple flushes"
     pattern), measured over many operations *)
  let app_cycles ~buggy =
    let pmem = Runtime.Pmem.create () in
    let kv = Workloads.Kvstore.create ~capacity:4096 pmem in
    let rng = Workloads.Gen.rng 99 in
    for i = 1 to 20_000 do
      let key = 1 + Workloads.Gen.uniform rng ~keyspace:1024 in
      ignore (Workloads.Kvstore.set kv key i);
      if buggy then begin
        (* the seeded performance bug: flush the entry again *)
        Runtime.Pmem.flush_range pmem ~obj_id:0
          ~first_slot:0 ~nslots:2 ();
        Runtime.Pmem.fence pmem ()
      end
    done;
    (Runtime.Pmem.stats pmem).Runtime.Pmem.cycles
  in
  let buggy_c = app_cycles ~buggy:true in
  let fixed_c = app_cycles ~buggy:false in
  Fmt.pr
    "application-level (20k KV sets, redundant flush bug): %d -> %d cycles, \
     %.1f%% improvement (paper: up to 43%%)@."
    buggy_c fixed_c
    (100. *. (1. -. (float_of_int fixed_c /. float_of_int buggy_c)))

(* ------------------------------------------------------------------ *)
(* Completeness (5.3): all studied bugs are re-detected *)

let completeness () =
  section "Completeness (5.3): detection of the studied bugs";
  let found = ref 0 and total = ref 0 in
  List.iter
    (fun (p : Corpus.Types.program) ->
      let _, score = Corpus.Registry.analyze p in
      List.iter
        (fun ((e : Deepmc.Report.expectation), _) ->
          if e.Deepmc.Report.validated && not e.Deepmc.Report.is_new then begin
            incr total;
            if List.exists (fun (e', _) -> e' = e) score.Deepmc.Report.matched
            then incr found
            else
              Fmt.pr "MISSED: %s %s:%d@." p.Corpus.Types.name
                e.Deepmc.Report.file e.Deepmc.Report.line
          end)
        p.Corpus.Types.expectations)
    Corpus.Registry.all;
  Fmt.pr "studied bugs re-detected: %d/%d (paper: 19/19)@." !found !total

(* ------------------------------------------------------------------ *)
(* False positives (5.4) *)

let falsepos () =
  section "False positives (5.4)";
  let totals = Corpus.Registry.table1 () in
  let v = List.fold_left (fun a t -> a + t.Corpus.Registry.validated) 0 totals in
  let w = List.fold_left (fun a t -> a + t.Corpus.Registry.warnings) 0 totals in
  Fmt.pr "false positives: %d of %d warnings = %.0f%% (paper: ~14%%)@." (w - v)
    w
    (100. *. float_of_int (w - v) /. float_of_int w);
  let summary =
    List.fold_left
      (fun acc (p : Corpus.Types.program) ->
        let _, score = Corpus.Registry.analyze p in
        Analysis.Summary.merge acc
          (Analysis.Summary.of_warnings score.Deepmc.Report.warnings))
      Analysis.Summary.empty Corpus.Registry.all
  in
  Fmt.pr "@.%a@." Analysis.Summary.pp summary;
  Fmt.pr "@.benign patterns the conservative analysis flags:@.";
  List.iter
    (fun ((p : Corpus.Types.program), (e : Deepmc.Report.expectation), _) ->
      Fmt.pr "  %-18s %-20s %5d  %s@." p.Corpus.Types.name e.Deepmc.Report.file
        e.Deepmc.Report.line e.Deepmc.Report.description)
    (Corpus.Registry.benign_patterns ())

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation () =
  section "Ablation: field sensitivity";
  let run ~field_sensitive =
    let config = { Analysis.Config.default with field_sensitive } in
    let totals = Corpus.Registry.table1 ~config () in
    List.fold_left
      (fun (v, w) t ->
        (v + t.Corpus.Registry.validated, w + t.Corpus.Registry.warnings))
      (0, 0) totals
  in
  let v_fs, w_fs = run ~field_sensitive:true in
  let v_fi, w_fi = run ~field_sensitive:false in
  Fmt.pr "field-sensitive DSA:   %d validated / %d warnings@." v_fs w_fs;
  Fmt.pr "field-insensitive DSA: %d validated / %d warnings@." v_fi w_fi;
  Fmt.pr
    "field sensitivity recovers %d bugs (paper: 31%% of performance bugs \
     need it)@."
    (v_fs - v_fi);

  section "Ablation: path-exploration bounds";
  List.iter
    (fun max_paths ->
      let config = { Analysis.Config.default with Analysis.Config.max_paths } in
      let totals = Corpus.Registry.table1 ~config () in
      let v =
        List.fold_left (fun a t -> a + t.Corpus.Registry.validated) 0 totals
      in
      Fmt.pr "max_paths=%-4d -> %d validated bugs@." max_paths v)
    [ 1; 2; 4; 256 ];

  section "Ablation: PMTest-like baseline (annotation-driven, generic rules)";
  let deepmc_found = ref 0 and baseline_found = ref 0 and annotations = ref 0 in
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      (* best case for the baseline: the developer annotates everything *)
      let annotated = Nvmir.Prog.func_names prog in
      annotations :=
        !annotations + Deepmc.Baseline.annotation_sites prog ~annotated;
      let b = Deepmc.Baseline.check ~annotated prog in
      let score_b =
        Deepmc.Report.score (Corpus.Types.expectations p)
          b.Deepmc.Baseline.warnings
      in
      baseline_found := !baseline_found + Deepmc.Report.validated_count score_b;
      let _, score = Corpus.Registry.analyze p in
      deepmc_found := !deepmc_found + Deepmc.Report.validated_count score)
    Corpus.Registry.all;
  Fmt.pr "DeepMC:   %d validated bugs, developer effort: 1 compiler flag@."
    !deepmc_found;
  Fmt.pr "baseline: %d validated bugs, developer effort: %d annotation sites@."
    !baseline_found !annotations;

  section "Ablation: scalability with program size";
  List.iter
    (fun nfuncs ->
      let cfg = { Corpus.Synth.default_config with nfuncs; seed = 3 } in
      let prog, _ = Corpus.Synth.generate cfg in
      let t0 = Deepmc.Clock.now () in
      let r =
        Analysis.Checker.check ~roots:(Corpus.Synth.roots cfg)
          ~model:Analysis.Model.Strict prog
      in
      let dt = Deepmc.Clock.elapsed_s t0 in
      Fmt.pr "%5d funcs (%6d instrs): %7.1f ms, %4d traces@." nfuncs
        (Nvmir.Prog.total_instrs prog)
        (dt *. 1000.) r.Analysis.Checker.trace_count)
    [ 50; 100; 200; 400; 800 ];

  section "Ablation: cache-line granularity (2.1)";
  (* flush cost and crash exposure both depend on the line size the
     hardware writes back; sweep the simulator's line width under the
     KV-store workload *)
  List.iter
    (fun cacheline_slots ->
      let config = { Runtime.Config.default with Runtime.Config.cacheline_slots } in
      let pmem = Runtime.Pmem.create ~config () in
      let kv = Workloads.Kvstore.create ~capacity:2048 pmem in
      let rng = Workloads.Gen.rng 5 in
      for i = 1 to 20_000 do
        ignore (Workloads.Kvstore.set kv (1 + Workloads.Gen.uniform rng ~keyspace:512) i)
      done;
      let s = Runtime.Pmem.stats pmem in
      Fmt.pr
        "line=%-2d slots: %7d cycles, %6d lines written back, %5d slots to NVM@."
        cacheline_slots s.Runtime.Pmem.cycles s.Runtime.Pmem.flushed_lines
        s.Runtime.Pmem.nvm_writes)
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr
    "(wider lines amortize flush commands; the simulator tracks dirtiness \
     per slot, so slots written stay exact -- on real hardware whole lines \
     write back, which is why the Table 5 redundant-flush bugs cost 2-4x)@.";

  section "Ablation: seeded-bug recall on synthetic programs";
  List.iter
    (fun seed ->
      let cfg =
        {
          Corpus.Synth.default_config with
          nfuncs = 120;
          seed;
          buggy_fraction_pct = 25;
        }
      in
      let prog, seeded = Corpus.Synth.generate cfg in
      let r =
        Analysis.Checker.check ~roots:(Corpus.Synth.roots cfg)
          ~model:Analysis.Model.Strict prog
      in
      Fmt.pr "seed=%-3d seeded=%-3d warnings=%d@." seed seeded
        (List.length r.Analysis.Checker.warnings))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Strand-persistency workload (4.4): batched barriers vs per-op, and
   the dynamic checker's cost on a strand-annotated store *)

let strand () =
  section "Strand persistency: barrier batching and checking cost (4.4)";
  let run ~batch ~checked =
    let pmem = Runtime.Pmem.create () in
    let checker =
      if checked then begin
        let c = Runtime.Dynamic.create ~model:Analysis.Model.Strand () in
        Runtime.Dynamic.attach c pmem;
        Some c
      end
      else None
    in
    let kv =
      Workloads.Kvstore_strand.create ~capacity:4096 ~partitions:16 ~batch pmem
    in
    let rng = Workloads.Gen.rng 77 in
    let n = txs / 2 in
    let t0 = Deepmc.Clock.now () in
    for i = 1 to n do
      ignore (Workloads.Gen.simulate_work rng ~amount:2500);
      ignore
        (Workloads.Kvstore_strand.set kv
           (1 + Workloads.Gen.uniform rng ~keyspace:1024)
           i)
    done;
    Workloads.Kvstore_strand.quiesce kv;
    let dt = Deepmc.Clock.elapsed_s t0 in
    let stats = Runtime.Pmem.stats pmem in
    ( float_of_int n /. dt,
      stats.Runtime.Pmem.fences,
      Option.map Runtime.Dynamic.summary checker )
  in
  List.iter
    (fun batch ->
      let base_tps, fences, _ = run ~batch ~checked:false in
      let chk_tps, _, summary = run ~batch ~checked:true in
      Fmt.pr
        "batch=%-3d %8.0f tx/s baseline | %8.0f tx/s checked | overhead \
         %5.1f%% | %6d barriers%s@."
        batch base_tps chk_tps
        (100. *. (1. -. (chk_tps /. base_tps)))
        fences
        (match summary with
        | Some s -> Fmt.str " | races %d" s.Runtime.Dynamic.waw
        | None -> ""))
    [ 1; 4; 16; 64 ];
  Fmt.pr
    "(larger strand batches amortize persist barriers -- the concurrency \
     strand persistency exists for -- while the happens-before checker's \
     relative cost stays in the Figure 12 band)@."

(* ------------------------------------------------------------------ *)
(* Injection recall/precision: the mutation-based evaluation of all
   three detectors (lib/inject).  `recall --json` writes
   BENCH_inject.json for EXPERIMENTS.md / CI. *)

let recall ?(json = false) () =
  let seed = bench_seed ~default:1 in
  section "Injection campaign: per-operator x per-detector recall/precision";
  let bases =
    Inject.Evaluate.corpus_bases () @ Inject.Evaluate.exemplar_bases ()
  in
  if json then begin
    (* telemetry rides along with the measured campaign: the scoring
       latency histograms only exist if the instruments are live *)
    Obs.Metrics.reset ();
    Obs.set_enabled true
  end;
  let s = Inject.Evaluate.run ~seed bases in
  if json then Obs.set_enabled false;
  Fmt.pr "%a" Inject.Evaluate.pp_summary s;
  if json then begin
    let j =
      match Inject.Evaluate.to_json s with
      | Deepmc.Json_report.Obj fields ->
        Deepmc.Json_report.Obj
          (fields
          @ [
              ( "telemetry",
                Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ()) );
            ])
      | j -> j
    in
    let oc = open_out "BENCH_inject.json" in
    let ppf = Format.formatter_of_out_channel oc in
    Fmt.pf ppf "%a@." Deepmc.Json_report.pp j;
    close_out oc;
    Fmt.pr "wrote BENCH_inject.json@."
  end

(* ------------------------------------------------------------------ *)
(* Recovery-tier recall: the media-corruption mutation operators
   scored against the recovery executor (lib/recover) over the
   dedicated recovery corpus.  `recover --json` writes
   BENCH_recover.json for EXPERIMENTS.md / CI: the base-verification
   rows (unguarded base warns, CRC-guarded base verifies clean) plus
   the per-operator recall row the `make verify` gate checks. *)

let recover_bench ?(json = false) () =
  let seed = bench_seed ~default:1 in
  section "Recovery tier: corruption-operator recall via lib/recover";
  if json then begin
    Obs.Metrics.reset ();
    Obs.set_enabled true
  end;
  let bases = Inject.Evaluate.recovery_bases () in
  let s = Inject.Evaluate.run_recovery ~seed bases in
  if json then Obs.set_enabled false;
  Fmt.pr "%a" Inject.Evaluate.pp_recovery_summary s;
  if json then begin
    let j =
      match Inject.Evaluate.recovery_to_json s with
      | Deepmc.Json_report.Obj fields ->
        Deepmc.Json_report.Obj
          (fields
          @ [
              ( "telemetry",
                Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ()) );
            ])
      | j -> j
    in
    let oc = open_out "BENCH_recover.json" in
    let ppf = Format.formatter_of_out_channel oc in
    Fmt.pf ppf "%a@." Deepmc.Json_report.pp j;
    close_out oc;
    Fmt.pr "wrote BENCH_recover.json@."
  end

(* ------------------------------------------------------------------ *)
(* Interleaving fuzzer vs random scheduling over the false-negative
   corpus (lib/fuzz).  `fuzz --json` writes BENCH_fuzz.json; the
   headline is how many of the injection campaign's known misses the
   coverage-guided campaign recovers vs a random-schedule ablation
   under the same budget. *)

let fuzz_bench ?(json = false) () =
  let seed = bench_seed ~default:1 in
  let budget = env_int "DEEPMC_FUZZ_BUDGET" ~default:24 in
  section "Interleaving fuzzer: recovery of known misses, guided vs random";
  (* re-derive the false-negative corpus with the offset lattice
     ABLATED: the static tier no longer misses these mutants (the
     offset-aware DSG resolves the pointer-arith aliases), so the
     historical §5.4 blind-spot population — the fuzzer's benchmark —
     only exists under the legacy configuration *)
  let bases =
    let config = { Analysis.Config.default with offset_sensitive = false } in
    Inject.Evaluate.corpus_bases ~config ()
    @ Inject.Evaluate.exemplar_bases ~config ()
  in
  (* mutants the expected tier's detector misses (the crash explorer is
     irrelevant to tier misses and only costs time here) *)
  let s = Inject.Evaluate.run ~crash:false ~seed bases in
  let fns = Inject.Evaluate.false_negatives s in
  if json then begin
    Obs.Metrics.reset ();
    Obs.set_enabled true
  end;
  let rows =
    List.filter_map
      (fun (mr : Inject.Evaluate.mutant_result) ->
        let m = mr.Inject.Evaluate.mutant in
        match
          List.find_opt
            (fun (b : Inject.Evaluate.base) ->
              String.equal b.Inject.Evaluate.bname m.Inject.Mutation.base)
            bases
        with
        | Some b when b.Inject.Evaluate.entry <> None ->
          let entry = Option.get b.Inject.Evaluate.entry in
          let target prog tname =
            {
              Fuzz.Campaign.tname;
              prog;
              model = m.Inject.Mutation.model;
              entry;
              entry_args = b.Inject.Evaluate.entry_args;
              clients = 1;
            }
          in
          let campaign mode prog tname =
            Fuzz.Campaign.run ~seed ~budget ~mode (target prog tname)
          in
          let score mode =
            (* the base program's campaign under the same parameters
               subtracts pre-existing noise, so a recovery is a warning
               the mutation itself exposed *)
            let base_o =
              campaign mode b.Inject.Evaluate.prog m.Inject.Mutation.base
            in
            let o = campaign mode m.Inject.Mutation.prog m.Inject.Mutation.id in
            ( Fuzz.Campaign.recovers ~truth:m.Inject.Mutation.truth
                ~base:base_o o,
              o )
          in
          let guided_hit, guided_o = score Fuzz.Campaign.Guided in
          let random_hit, random_o = score Fuzz.Campaign.Random in
          Some (m, guided_hit, guided_o, random_hit, random_o)
        | _ -> None)
      fns
  in
  if json then Obs.set_enabled false;
  Fmt.pr "budget: %d schedules per campaign, seed %d@." budget seed;
  Fmt.pr "%-34s %-14s %6s %8s %8s@." "mutant" "operator" "bnds" "guided"
    "random";
  hr ();
  List.iter
    (fun ((m : Inject.Mutation.mutant), g, go, r, _) ->
      Fmt.pr "%-34s %-14s %6d %8s %8s@." m.Inject.Mutation.id
        (Inject.Mutation.operator_name m.Inject.Mutation.truth.operator)
        go.Fuzz.Campaign.nboundaries
        (if g then "HIT" else "miss")
        (if r then "HIT" else "miss"))
    rows;
  hr ();
  let count f = List.length (List.filter f rows) in
  let guided_n = count (fun (_, g, _, _, _) -> g) in
  let random_n = count (fun (_, _, _, r, _) -> r) in
  Fmt.pr
    "known misses recovered: guided %d/%d, random %d/%d -> fuzzer finds \
     strictly more: %b@."
    guided_n (List.length rows) random_n (List.length rows)
    (guided_n > random_n);
  if json then begin
    let j =
      Deepmc.Json_report.Obj
        [
          ("seed", Deepmc.Json_report.Int seed);
          ("budget", Deepmc.Json_report.Int budget);
          ("fn_corpus", Deepmc.Json_report.Int (List.length fns));
          ("fuzzed", Deepmc.Json_report.Int (List.length rows));
          ("guided_recovered", Deepmc.Json_report.Int guided_n);
          ("random_recovered", Deepmc.Json_report.Int random_n);
          ("strictly_more", Deepmc.Json_report.Bool (guided_n > random_n));
          ( "mutants",
            Deepmc.Json_report.List
              (List.map
                 (fun ((m : Inject.Mutation.mutant), g, go, r, ro) ->
                   Deepmc.Json_report.Obj
                     [
                       ("id", Deepmc.Json_report.String m.Inject.Mutation.id);
                       ( "operator",
                         Deepmc.Json_report.String
                           (Inject.Mutation.operator_name
                              m.Inject.Mutation.truth.operator) );
                       ( "nboundaries",
                         Deepmc.Json_report.Int go.Fuzz.Campaign.nboundaries );
                       ("guided", Deepmc.Json_report.Bool g);
                       ("random", Deepmc.Json_report.Bool r);
                       ( "guided_novel_schedules",
                         Deepmc.Json_report.Int go.Fuzz.Campaign.novel_schedules
                       );
                       ( "guided_pair_bits",
                         Deepmc.Json_report.Int go.Fuzz.Campaign.pair_bits );
                       ( "random_novel_schedules",
                         Deepmc.Json_report.Int ro.Fuzz.Campaign.novel_schedules
                       );
                     ])
                 rows) );
          ( "telemetry",
            Deepmc.Json_report.of_metrics (Obs.Metrics.snapshot ()) );
        ]
    in
    let oc = open_out "BENCH_fuzz.json" in
    let ppf = Format.formatter_of_out_channel oc in
    Fmt.pf ppf "%a@." Deepmc.Json_report.pp j;
    close_out oc;
    Fmt.pr "wrote BENCH_fuzz.json@."
  end

let sections : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("figure10", figure10);
    ("figure11", figure11);
    ("figure12", figure12 ?json:None);
    ("perffix", perffix);
    ("completeness", completeness);
    ("falsepos", falsepos);
    ("ablation", ablation);
    ("strand", strand);
    ("recall", recall ?json:None);
    ("recover", recover_bench ?json:None);
    ("fuzz", fuzz_bench ?json:None);
  ]

let () =
  match Sys.argv with
  | [| _ |] -> List.iter (fun (_, f) -> f ()) sections
  | [| _; "figure12"; "--json" |] -> figure12 ~json:true ()
  | [| _; "recall"; "--json" |] -> recall ~json:true ()
  | [| _; "recover"; "--json" |] -> recover_bench ~json:true ()
  | [| _; "fuzz"; "--json" |] -> fuzz_bench ~json:true ()
  | [| _; name |] -> (
    match List.assoc_opt name sections with
    | Some f -> f ()
    | None ->
      Fmt.epr "unknown section %s; available: %s@." name
        (String.concat ", " (List.map fst sections));
      exit 1)
  | _ ->
    Fmt.epr "usage: %s [section]@." Sys.argv.(0);
    exit 1
