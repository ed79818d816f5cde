(* The benchmark's definition: its workloads, every metric with its unit
   and better direction, and the regression bound of each end-to-end
   metric. BENCHMARK.json at the repository root is [render ()]; the
   smoke test diffs the two, so neither can drift from the other. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: tolerated relative worsening *)
}

let command = [ "python3"; "bench/e2e/run.py" ]
let paths = [ "bench/e2e" ]

(* Each run measures this long. A sweep of 4 + 22 x 5 runs, each about
   run_seconds + 3 s (start-up, set-ups, checks after the loop), takes
   about 2600 s, within a 3420 s budget that includes two builds. *)
let run_seconds = 20

let workloads =
  [
    ( "corpus-pipeline",
      "The 20-program bug corpus through check, dynamic run, crash-image \
       exploration and recovery: interpreter, Pmem and Crash_space dominate; \
       rules barely run." );
    ( "synth-wide",
      "Application-sized synth programs (300-500 functions) checked from \
       their driver roots on 2 domains: DSA, trace expansion, rules and pool \
       fan-out all carry weight." );
    ( "synth-deep",
      "Small synth programs checked from main: 64 long paths of thousands of \
       events each, so rule evaluation takes nearly all of the time." );
    ( "serve-edit",
      "A resident daemon re-checking 24 programs: 70% byte-identical \
       resubmissions that hit the cache, 30% single-site edits re-checked \
       incrementally." );
    ( "dynamic-kv",
      "Memslap (8000 transactions) and YCSB (4000) batches on 2 client \
       domains under the epoch dynamic checker: Pmem, Shadow and Dynamic do \
       all the work." );
  ]

let workload_names = List.map fst workloads

let e name unit_ better bound = { name; unit_; better; bound = Some bound }
let l name unit_ better = { name; unit_; better; bound = None }

(* Each bound is set from the quartile spreads of ten seeds measured on a
   shared 2-vCPU host (README.md, "Measured spread"): the time metrics'
   spreads reached 20%, so they take 0.25, the largest bound a metric may
   have, which setup_s (spreads up to 24%) shares; peak RSS spread by at
   most 7%, so it takes 0.2. *)
let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "latency_p50_ms" "ms" Lower 0.25;
    e "latency_p90_ms" "ms" Lower 0.25;
    e "throughput_rps" "1/s" Higher 0.25;
    e "peak_rss_mb" "MiB" Lower 0.2;
  ]

(* Per-layer values are means per traced request unless the name says
   otherwise; a layer a workload never calls reads 0. *)
let per_layer =
  [
    l "nvmir.parse_ns" "ns" Lower;
    l "nvmir.parse_mb_per_s" "MB/s" Higher;
    l "graphs.callgraph_ns" "ns" Lower;
    l "dsa.build_ns" "ns" Lower;
    l "trace.precompute_ns" "ns" Lower;
    l "trace.expand_ns" "ns" Lower;
    l "trace.paths" "count" Lower;
    l "trace.events" "count" Lower;
    l "trace.peak_live_paths" "count" Lower;
    l "trace.roots_at_path_cap" "count" Lower;
    l "rules.eval_ns" "ns" Lower;
    l "rules.raw_warnings" "count" Lower;
    l "rules.dedup_ratio" "ratio" Higher;
    l "checker.check_ns" "ns" Lower;
    l "checker.other_ns" "ns" Lower;
    l "pool.domains" "count" Higher;
    l "pool.claims" "count" Lower;
    l "pool.parks" "count" Lower;
    l "pool.wait_ns" "ns" Lower;
    l "interp.run_ns" "ns" Lower;
    l "interp.steps" "count" Lower;
    l "dynamic.checked_run_ns" "ns" Lower;
    l "dynamic.checked_tx_per_s" "tx/s" Higher;
    l "dynamic.baseline_tx_per_s" "tx/s" Higher;
    l "dynamic.overhead_pct" "%" Lower;
    l "dynamic.waw" "count" Lower;
    l "dynamic.raw" "count" Lower;
    l "pmem.stores_per_tx" "count" Lower;
    l "pmem.flushes_per_tx" "count" Lower;
    l "pmem.fences_per_tx" "count" Lower;
    l "crash.explore_ns" "ns" Lower;
    l "crash.images_enumerated" "count" Lower;
    l "crash.images_distinct" "count" Lower;
    l "crash.distinct_ratio" "ratio" Higher;
    l "crash.images_per_s" "1/s" Higher;
    l "recover.verify_ns" "ns" Lower;
    l "recover.images_checked" "count" Lower;
    l "serve.protocol_parse_ns" "ns" Lower;
    l "serve.render_ns" "ns" Lower;
    l "serve.fingerprint_ns" "ns" Lower;
    l "serve.cache_check_ns.hit" "ns" Lower;
    l "serve.cache_check_ns.partial" "ns" Lower;
    l "serve.cache_check_ns.miss" "ns" Lower;
    l "serve.roots_reused" "count" Higher;
    l "serve.roots_rechecked" "count" Lower;
    l "serve.functions_invalidated" "count" Lower;
    l "serve.reuse_ratio" "ratio" Higher;
    l "serve.hit_p50_ms" "ms" Lower;
    l "serve.edit_p50_ms" "ms" Lower;
    l "gc.minor_words_per_req" "words" Lower;
    l "gc.major_collections_per_req" "count" Lower;
    l "bench.request_ns" "ns" Lower;
    l "bench.trace_overhead_pct" "%" Lower;
    l "bench.layer_coverage" "ratio" Higher;
  ]

let find name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"

let render () =
  let str s = Serve.Protocol.to_line (Serve.Protocol.String s) in
  let strs l = "[" ^ String.concat ", " (List.map str l) ^ "]" in
  let objs rows = "[\n" ^ String.concat ",\n" rows ^ "\n  ]" in
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (str m.name) (str m.unit_)
      (str (better_name m.better))
      (match m.bound with
      | Some b -> Printf.sprintf ", \"bound\": %g" b
      | None -> "")
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": %s,\n" (strs command);
      Printf.sprintf "  \"paths\": %s,\n" (strs paths);
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      Printf.sprintf "  \"workloads\": %s,\n"
        (objs
           (List.map
              (fun (n, why) ->
                Printf.sprintf "    {\"name\": %s, \"why\": %s}" (str n)
                  (str why))
              workloads));
      Printf.sprintf "  \"end_to_end\": %s,\n" (objs (List.map metric end_to_end));
      Printf.sprintf "  \"per_layer\": %s\n" (objs (List.map metric per_layer));
      "}\n";
    ]
