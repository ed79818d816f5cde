(* Runs one workload: a closed loop of one client, each request timed
   alone. The untraced run reports the end-to-end metrics; the traced run
   alternates untraced requests with the same requests split into layer
   calls, and reports the per-layer metrics. *)

let workloads =
  [ W_corpus.workload; W_synth.wide; W_synth.deep; W_serve.workload; W_dynamic.workload ]

let find name =
  List.find_opt (fun (w : Workload.t) -> String.equal w.Workload.name name) workloads

type value = { v : float; samples : int }

type result = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, with their inputs *)
  metrics : (string * value) list;  (** in schema order *)
  raw : (string * float) list;  (** end-to-end values before speed normalization *)
  speed_ms : float;  (** median reference-kernel time of the run *)
  trace_overhead_pct : float option;
}

(* Set-ups in an untraced run: at least [min_setups], then more until
   all of them took [setup_budget_s], up to [max_setups]. setup_s is
   their median. *)
let min_setups = 5
let max_setups = 15
let setup_budget_s = 1.0

(* A run of --quick makes this many requests per loop and nothing more. *)
let quick_requests = 3

(* Otherwise the loop goes on past its seconds until it has made this
   many requests, so that ten of them lie beyond the 90th percentile. *)
let min_requests = 100

(* The request times of a run are cut into consecutive windows of at
   least [window] requests, at most [max_windows] of them, and each time
   metric is the median of its values over the windows. A slow stretch
   of the host that the reference kernel does not fully correct then
   spoils a few windows, not the tail of the whole run. *)
let window = 100
let max_windows = 10

let windowed f xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (min max_windows (n / window)) in
  Stats.median
    (List.init k (fun j ->
         let lo = j * n / k and hi = (j + 1) * n / k in
         f (Array.to_list (Array.sub a lo (hi - lo)))))

let ms ns = Int64.to_float ns /. 1e6

(* Calls [step i] for i = 0, 1, ... until [seconds] have passed and
   [min_requests] steps are done, or [quick_requests] times with [quick],
   sampling the reference kernel between steps. *)
let loop ~seconds ~quick step =
  let deadline = Int64.add (Tracer.now ()) (Int64.of_float (seconds *. 1e9)) in
  let speed = Speed.create () in
  let rec go i =
    let stop =
      if quick then i >= quick_requests
      else i >= min_requests && Int64.compare (Tracer.now ()) deadline >= 0
    in
    Speed.maybe_sample speed ~done_:i;
    if not stop then begin
      step i;
      go (i + 1)
    end
  in
  go 0;
  speed

(* Request latencies in ms, raw and at the host's nominal speed. *)
let latencies outcomes speed =
  let raw = List.map (fun (o : Workload.outcome) -> ms o.Workload.latency_ns) outcomes in
  let f = Speed.factors speed (List.length raw) in
  (raw, List.mapi (fun i x -> x *. f.(i)) raw)

(* Requests that failed a check, during or after the loop. *)
let failures outcomes late =
  let bad = Hashtbl.create 8 in
  List.iteri
    (fun i (o : Workload.outcome) ->
      List.iter
        (fun f -> Hashtbl.replace bad i (o.Workload.input ^ ": " ^ f))
        o.Workload.failures)
    outcomes;
  List.iter (fun (i, f) -> Hashtbl.replace bad i f) late;
  let msgs =
    Hashtbl.fold (fun i f acc -> (i, f) :: acc) bad []
    |> List.sort compare
    |> List.map (fun (i, f) -> Fmt.str "request %d: %s" i f)
  in
  (Hashtbl.length bad, List.filteri (fun i _ -> i < 5) msgs)

(* Peak resident set of this process (VmHWM), MiB, less the reference
   kernel's table. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> Float.nan
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
        /. 1024.
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan -. Speed.table_mib

(* peak_rss_mb is read once the loop has made this many requests, or
   after the loop if it makes fewer. The serve daemon's caches keep every
   text they are sent, so a peak read at the end would grow with the
   number of requests the host's speed allowed. *)
let rss_requests = 1000

let setup_quiet (w : Workload.t) ~seed ~traced =
  let inst = w.Workload.setup ~seed ~traced in
  (* priming may have called into traced layers; start the loop clean *)
  ignore (Layers.take ());
  Tracer.reset ();
  Gc.compact ();
  inst

(* One set-up: the instance and its time in seconds, raw and at nominal
   speed. *)
let setup_once (w : Workload.t) ~seed =
  let (inst, dt), nominal =
    Speed.nominal (fun () ->
        let t0 = Tracer.now () in
        let inst = w.Workload.setup ~seed ~traced:false in
        (inst, Int64.to_float (Int64.sub (Tracer.now ()) t0) /. 1e9))
  in
  (inst, (dt, nominal))

(* The times of [first] and of further set-ups, made after the loop so
   that their garbage does not raise its peak resident set. *)
let more_setups w ~seed first =
  let rec go acc total =
    let n = List.length acc in
    if n >= max_setups || (n >= min_setups && total >= setup_budget_s) then
      List.rev acc
    else
      let _, t = setup_once w ~seed in
      go (t :: acc) (total +. fst t)
  in
  go [ first ] (fst first)

let end_to_end (w : Workload.t) ~seed ~seconds ~quick =
  let inst, first = setup_once w ~seed in
  Gc.compact ();
  let outcomes = ref [] and rss = ref None in
  let speed =
    loop ~seconds ~quick (fun i ->
        outcomes := inst.Workload.run i :: !outcomes;
        if i + 1 = rss_requests then rss := Some (peak_rss_mb ()))
  in
  let rss = match !rss with Some r -> r | None -> peak_rss_mb () in
  let outcomes = List.rev !outcomes in
  let late = inst.Workload.verify () in
  let times = if quick then [ first ] else more_setups w ~seed first in
  let raw, lat = latencies outcomes speed in
  let n = List.length lat in
  let failed, failures = failures outcomes late in
  let summary lat setup =
    [
      ("setup_s", Stats.median setup);
      ("latency_p50_ms", windowed (fun l -> Stats.percentile l 0.5) lat);
      ("latency_p90_ms", windowed (fun l -> Stats.percentile l 0.9) lat);
      ( "throughput_rps",
        windowed
          (fun l -> float_of_int (List.length l) /. (List.fold_left ( +. ) 0. l /. 1e3))
          lat );
      ("peak_rss_mb", rss);
    ]
  in
  let samples = function "setup_s" -> List.length times | "peak_rss_mb" -> 1 | _ -> n in
  {
    workload = w.Workload.name;
    traced = false;
    attempted = n;
    failed;
    failures;
    metrics =
      List.map
        (fun (k, v) -> (k, { v; samples = samples k }))
        (summary lat (List.map snd times));
    raw = summary raw (List.map fst times);
    speed_ms = Speed.median_ms speed;
    trace_overhead_pct = None;
  }

let pool_counts () =
  List.fold_left
    (fun (c, p) (s : Pool.worker_stat) -> (c + s.Pool.claims, p + s.Pool.parks))
    (0, 0)
    (Pool.worker_stats (Pool.default ()))

(* Two instances from the same seed, one untraced and one traced, take
   turns on the same request stream: each request runs untraced and then
   traced, or the other way round on odd requests, so host speed and
   warm-up weigh on both alike. Layer counts and GC and pool deltas cover
   the traced requests only. *)
let traced (w : Workload.t) ~seed ~seconds ~quick ~chrome =
  let plain = setup_quiet w ~seed ~traced:false in
  let inst = setup_quiet w ~seed ~traced:true in
  let outs_a = ref [] and outs_b = ref [] in
  let minor = ref 0. and majors = ref 0 and claims = ref 0 and parks = ref 0 in
  let untraced_request i = outs_a := plain.Workload.run i :: !outs_a in
  let traced_request i =
    let minor0 = Gc.minor_words ()
    and majors0 = (Gc.quick_stat ()).Gc.major_collections
    and claims0, parks0 = pool_counts () in
    outs_b := inst.Workload.run i :: !outs_b;
    let claims1, parks1 = pool_counts () in
    minor := !minor +. Gc.minor_words () -. minor0;
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
    claims := !claims + claims1 - claims0;
    parks := !parks + parks1 - parks0
  in
  let speed =
    loop ~seconds ~quick (fun i ->
        if i mod 2 = 0 then begin
          untraced_request i;
          traced_request i
        end
        else begin
          traced_request i;
          untraced_request i
        end)
  in
  let outs_a = List.rev !outs_a and outs_b = List.rev !outs_b in
  let late_a = plain.Workload.verify () and late_b = inst.Workload.verify () in
  let b = Layers.take () in
  let n = float_of_int (List.length outs_b) in
  let per_req x = x /. n in
  let ratio x y = if y > 0. then x /. y else 0. in
  let total = Tracer.total_ns and self = Tracer.self_ns and sum = Layers.sum b in
  let overhead =
    let time outs =
      List.fold_left
        (fun acc (o : Workload.outcome) -> acc +. ms o.Workload.latency_ns)
        0. outs
    in
    100. *. (ratio (time outs_b) (time outs_a) -. 1.)
  in
  let p50_of kind =
    match
      List.filter_map
        (fun (o : Workload.outcome) ->
          if String.equal o.Workload.kind kind then Some (ms o.Workload.latency_ns)
          else None)
        outs_a
    with
    | [] -> 0.
    | xs -> Stats.median xs
  in
  let checked_tps = Layers.median b "dynamic.checked_tx_per_s"
  and baseline_tps = Layers.median b "dynamic.baseline_tx_per_s" in
  let cache_check level =
    ratio (sum ("serve.cache_check_ns." ^ level)) (sum ("serve.cache_checks." ^ level))
  in
  let values =
    [
      ("nvmir.parse_ns", per_req (total "Parser.parse"));
      ( "nvmir.parse_mb_per_s",
        ratio (sum "nvmir.bytes" /. 1e6) (total "Parser.parse" /. 1e9) );
      ("graphs.callgraph_ns", per_req (total "Callgraph.of_prog"));
      ("dsa.build_ns", per_req (total "Dsg.build"));
      ("trace.precompute_ns", per_req (total "Trace.stream"));
      ("trace.expand_ns", per_req (total "expand"));
      ("trace.paths", per_req (sum "trace.paths"));
      ("trace.events", per_req (sum "trace.events"));
      ("trace.peak_live_paths", per_req (sum "trace.peak_live_paths"));
      ("trace.roots_at_path_cap", per_req (sum "trace.roots_at_path_cap"));
      ("rules.eval_ns", per_req (total "rules"));
      ("rules.raw_warnings", per_req (sum "rules.raw_warnings"));
      ("rules.dedup_ratio", ratio (sum "rules.final_warnings") (sum "rules.raw_warnings"));
      ("checker.check_ns", per_req (total "Checker.check"));
      ( "checker.other_ns",
        per_req
          (self "Checker.check" +. self "check-root" +. self "Arena.compress"
         +. self "Checker.merge_roots") );
      ("pool.domains", float_of_int (Pool.size (Pool.default ())));
      ("pool.claims", per_req (float_of_int !claims));
      ("pool.parks", per_req (float_of_int !parks));
      ("pool.wait_ns", per_req (self "Pool.map"));
      ("interp.run_ns", per_req (total "Interp.run"));
      ("interp.steps", per_req (sum "interp.steps"));
      ("dynamic.checked_run_ns", per_req (total "Harness.measure.checked"));
      ("dynamic.checked_tx_per_s", checked_tps);
      ("dynamic.baseline_tx_per_s", baseline_tps);
      ( "dynamic.overhead_pct",
        if baseline_tps > 0. then 100. *. (1. -. (checked_tps /. baseline_tps)) else 0. );
      ("dynamic.waw", per_req (sum "dynamic.waw"));
      ("dynamic.raw", per_req (sum "dynamic.raw"));
      ("pmem.stores_per_tx", per_req (sum "pmem.stores_per_tx"));
      ("pmem.flushes_per_tx", per_req (sum "pmem.flushes_per_tx"));
      ("pmem.fences_per_tx", per_req (sum "pmem.fences_per_tx"));
      ("crash.explore_ns", per_req (total "Crash_sweep.explore_program"));
      ("crash.images_enumerated", per_req (sum "crash.images_enumerated"));
      ("crash.images_distinct", per_req (sum "crash.images_distinct"));
      ( "crash.distinct_ratio",
        ratio (sum "crash.images_distinct") (sum "crash.images_enumerated") );
      ( "crash.images_per_s",
        ratio (sum "crash.images_enumerated")
          (total "Crash_sweep.explore_program" /. 1e9) );
      ("recover.verify_ns", per_req (total "Recover.verify"));
      ("recover.images_checked", per_req (sum "recover.images_checked"));
      ("serve.protocol_parse_ns", per_req (total "Protocol.parse"));
      ("serve.render_ns", per_req (total "Protocol.to_line"));
      ("serve.fingerprint_ns", per_req (total "Fingerprint.build"));
      ("serve.cache_check_ns.hit", cache_check "hit");
      ("serve.cache_check_ns.partial", cache_check "partial");
      ("serve.cache_check_ns.miss", cache_check "miss");
      ("serve.roots_reused", per_req (sum "serve.roots_reused"));
      ("serve.roots_rechecked", per_req (sum "serve.roots_rechecked"));
      ("serve.functions_invalidated", per_req (sum "serve.functions_invalidated"));
      ( "serve.reuse_ratio",
        ratio (sum "serve.roots_reused")
          (sum "serve.roots_reused" +. sum "serve.roots_rechecked") );
      ("serve.hit_p50_ms", p50_of "hit");
      ("serve.edit_p50_ms", p50_of "edit");
      ("gc.minor_words_per_req", per_req !minor);
      ("gc.major_collections_per_req", per_req (float_of_int !majors));
      ("bench.request_ns", per_req (total "request"));
      ("bench.trace_overhead_pct", overhead);
      ("bench.layer_coverage", ratio (total "request" -. self "request") (total "request"));
    ]
  in
  Tracer.write_chrome chrome;
  let outcomes = outs_a @ outs_b in
  let failed_a, first_a = failures outs_a late_a in
  let failed_b, first_b = failures outs_b late_b in
  {
    workload = w.Workload.name;
    traced = true;
    attempted = List.length outcomes;
    failed = failed_a + failed_b;
    failures = List.filteri (fun i _ -> i < 5) (first_a @ first_b);
    metrics = List.map (fun (k, v) -> (k, { v; samples = List.length outs_b })) values;
    raw = [];
    speed_ms = Speed.median_ms speed;
    trace_overhead_pct = Some overhead;
  }
