(* Telemetry tests: registry semantics, the disabled-path overhead
   guard (no instrument state may exist after an uninstrumented run),
   engine-differential invariance under telemetry, trace-event format
   validity under concurrent span emission, and the injection
   blind-spot metric against its persisted-corpus recount. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* Every telemetry test must leave the process the way it found it:
   disabled, empty registry, empty span buffers. *)
let with_telemetry f =
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_registry_basics () =
  with_telemetry (fun () ->
      let c = Obs.Metrics.counter ~desc:"test counter" "test.count" in
      let g = Obs.Metrics.gauge ~desc:"test gauge" "test.level" in
      let h = Obs.Metrics.histogram ~desc:"test histogram" "test.dist" in
      Obs.Metrics.incr c;
      Obs.Metrics.add c 4;
      Obs.Metrics.add_labelled c "shard=1" 2;
      Obs.Metrics.set g 7;
      Obs.Metrics.set_max g 3 (* below the high-water mark: no effect *);
      Obs.Metrics.set_max g 11;
      Obs.Metrics.observe h 1;
      Obs.Metrics.observe h 3;
      Obs.Metrics.observe h 1000;
      let s = Obs.Metrics.snapshot () in
      check Alcotest.(list string) "snapshot names, sorted"
        [ "test.count"; "test.count{shard=1}"; "test.dist"; "test.level" ]
        (List.map fst s);
      (match Obs.Metrics.find s "test.count" with
      | Some (Obs.Metrics.Count n) -> check Alcotest.int "counter" 5 n
      | _ -> Alcotest.fail "counter missing");
      (match Obs.Metrics.find s "test.level" with
      | Some (Obs.Metrics.Level n) -> check Alcotest.int "gauge max" 11 n
      | _ -> Alcotest.fail "gauge missing");
      (match Obs.Metrics.find s "test.dist" with
      | Some (Obs.Metrics.Dist d) ->
        check Alcotest.int "hist count" 3 d.Obs.Metrics.h_count;
        check Alcotest.int "hist sum" 1004 d.Obs.Metrics.h_sum;
        (* 1 -> bucket 0 (lo 0, also holds non-positives); 3 -> lo 2;
           1000 -> lo 512 *)
        check
          Alcotest.(list (pair int int))
          "log2 buckets"
          [ (0, 1); (2, 1); (512, 1) ]
          d.Obs.Metrics.h_buckets
      | _ -> Alcotest.fail "histogram missing");
      (* diff: counters and histograms become deltas, gauges pass
         through *)
      let before = s in
      Obs.Metrics.add c 10;
      Obs.Metrics.observe h 3;
      let d = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
      check Alcotest.int "counter delta" 10
        (Obs.Metrics.int_of_value (Option.get (Obs.Metrics.find d "test.count")));
      (match Obs.Metrics.find d "test.dist" with
      | Some (Obs.Metrics.Dist dd) ->
        check Alcotest.int "hist delta count" 1 dd.Obs.Metrics.h_count;
        check
          Alcotest.(list (pair int int))
          "hist delta buckets" [ (2, 1) ] dd.Obs.Metrics.h_buckets
      | _ -> Alcotest.fail "hist delta missing"))

let test_catalog_registration () =
  (* Declared instruments are in the catalog even while disabled and
     with zero live cells; process-wide instruments (pool, checker,
     trace, ...) registered at module init are present too. *)
  let names =
    List.map (fun m -> m.Obs.Metrics.m_name) (Obs.Metrics.catalog ())
  in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "%s not in catalog" n)
    [
      "pool.steals"; "trace.paths_expanded"; "rules.fired";
      "rules.events_stepped"; "rules.events_reused";
      "checker.warning_total"; "shadow.lock_contention"; "crash.points_explored";
      "inject.blind_spot_fns";
    ];
  check Alcotest.bool "catalog sorted" true
    (List.sort compare names = names)

(* ------------------------------------------------------------------ *)
(* Overhead guard: a full checker run with telemetry off must not
   intern a single cell or buffer a single span event. *)

let corpus_prog () =
  let p = List.hd Corpus.Registry.all in
  (Corpus.Types.parse p, Corpus.Types.model p, p.Corpus.Types.roots)

let test_disabled_allocates_nothing () =
  Obs.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  let prog, model, roots = corpus_prog () in
  ignore (Analysis.Checker.check ~roots ~model prog);
  check Alcotest.int "no cells interned" 0 (Obs.Metrics.live_instruments ());
  check Alcotest.bool "empty snapshot" true (Obs.Metrics.snapshot () = []);
  check Alcotest.bool "no span events" true (Obs.Span.events () = [])

(* Telemetry must be observationally inert: the checker reports
   byte-identical warnings whether it is on or off. *)
let test_checker_invariant_under_telemetry () =
  let prog, model, roots = corpus_prog () in
  let warnings () =
    let r = Analysis.Checker.check ~roots ~model prog in
    List.map (Fmt.str "%a" Analysis.Warning.pp) r.Analysis.Checker.warnings
  in
  check
    Alcotest.(list string)
    "telemetry on = off" (warnings ()) (with_telemetry warnings)

(* ------------------------------------------------------------------ *)
(* Pool worker stats *)

let test_pool_worker_stats () =
  let p = Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let r = Pool.map ~chunk:1 p (fun x -> x * x) (List.init 10 Fun.id) in
  check Alcotest.(list int) "results" (List.init 10 (fun x -> x * x)) r;
  let ws = Pool.worker_stats p in
  check Alcotest.int "every chunk claimed exactly once" 10
    (List.fold_left (fun a (w : Pool.worker_stat) -> a + w.Pool.claims) 0 ws);
  (* busy time is telemetry-gated; this run was unobserved *)
  List.iter
    (fun (w : Pool.worker_stat) ->
      check Alcotest.bool "no clock reads while disabled" true
        (w.Pool.busy_ns = 0L))
    ws

(* ------------------------------------------------------------------ *)
(* Span tracing: structural validity under concurrent emission *)

(* Minimal scanner for the emitted trace JSON: one record per line,
   fixed field order (written by Obs itself, not a generic printer). *)
type rec_ev = { ph : char; ts : float; pid : int; tid : int }

let parse_trace_json s =
  let field line key =
    let pat = "\"" ^ key ^ "\": " in
    match
      let rec find i =
        if i + String.length pat > String.length line then None
        else if String.sub line i (String.length pat) = pat then
          Some (i + String.length pat)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with
           | '0' .. '9' | '.' | '-' | '"' | 'B' | 'E' | 'M' -> true
           | _ -> false)
      do
        incr stop
      done;
      Some (String.sub line start (!stop - start))
  in
  List.filter_map
    (fun line ->
      match field line "ph" with
      | Some p when p = "\"B\"" || p = "\"E\"" ->
        Some
          {
            ph = (String.sub p 1 1).[0];
            ts = float_of_string (Option.get (field line "ts"));
            pid = int_of_string (Option.get (field line "pid"));
            tid = int_of_string (Option.get (field line "tid"));
          }
      | _ -> None (* metadata records and array brackets *))
    (String.split_on_char '\n' s)

let validate_track evs =
  (* stack discipline and monotone timestamps within one track *)
  let depth = ref 0 and last = ref neg_infinity in
  List.iter
    (fun e ->
      if e.ts < !last then Alcotest.failf "ts went backwards: %f" e.ts;
      last := e.ts;
      (match e.ph with
      | 'B' -> incr depth
      | _ ->
        decr depth;
        if !depth < 0 then Alcotest.fail "E without matching B");
      check Alcotest.int "pid constant" 1 e.pid)
    evs;
  check Alcotest.int "balanced B/E" 0 !depth

let test_qcheck_concurrent_spans =
  let gen =
    QCheck.make
      ~print:(fun (seed, items) -> Printf.sprintf "seed=%d items=%d" seed items)
      QCheck.Gen.(pair (int_bound 1000) (int_range 1 24))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"trace JSON valid under concurrency" gen
       (fun (seed, items) ->
         with_telemetry (fun () ->
             let p = Pool.create ~size:3 () in
             Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
             ignore
               (Pool.map ~chunk:1 p
                  (fun i ->
                    Obs.Span.with_ ~name:(Fmt.str "outer-%d" i) (fun () ->
                        if (i + seed) mod 2 = 0 then
                          Obs.Span.with_ ~name:"inner"
                            ~args:[ ("i", string_of_int i) ]
                            (fun () -> i * i)
                        else i))
                  (List.init items Fun.id));
             let evs = parse_trace_json (Obs.Span.to_json ()) in
             if evs = [] then Alcotest.fail "no span events emitted";
             let tids =
               List.sort_uniq compare (List.map (fun e -> e.tid) evs)
             in
             List.iter
               (fun tid ->
                 validate_track (List.filter (fun e -> e.tid = tid) evs))
               tids;
             (* raising inside a span still closes it *)
             (try
                Obs.Span.with_ ~name:"raises" (fun () -> failwith "boom")
              with Failure _ -> ());
             let raw = Obs.Span.events () in
             let opens =
               List.length
                 (List.filter (fun e -> e.Obs.Span.ev_ph = Obs.Span.Begin) raw)
             in
             check Alcotest.int "B/E balanced after raise"
               (List.length raw - opens)
               opens;
             true)))

(* ------------------------------------------------------------------ *)
(* The injection blind-spot metric vs. its persisted-corpus recount *)

let test_blind_spot_corpus_roundtrip () =
  (* the offset lattice closed the blind spot, so this exercises the
     metric plumbing under the ablated (legacy) configuration, where the
     pmfs delete-fence blind spot still exists *)
  let bases =
    Inject.Evaluate.corpus_bases
      ~config:{ Analysis.Config.default with offset_sensitive = false }
      ~framework:Corpus.Types.Pmfs ()
  in
  let s =
    Inject.Evaluate.run
      ~operators:[ Inject.Mutation.Delete_fence ]
      ~dynamic:false ~crash:false bases
  in
  check Alcotest.int "pmfs delete-fence blind spot" 2 s.Inject.Evaluate.known_blind_spot;
  List.iter
    (fun r ->
      check Alcotest.bool "blind-spot mutants are static-tier FNs" true
        (r.Inject.Evaluate.static_d.Inject.Evaluate.hit = false))
    (List.filter Inject.Evaluate.is_known_blind_spot s.Inject.Evaluate.results);
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "deepmc-obs-fn" in
  let _paths = Inject.Evaluate.save_false_negatives ~dir s in
  let recount = Inject.Evaluate.known_blind_spot_of_corpus ~dir in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  check Alcotest.int "corpus recount agrees" s.Inject.Evaluate.known_blind_spot
    recount;
  check Alcotest.int "missing dir counts zero" 0
    (Inject.Evaluate.known_blind_spot_of_corpus ~dir:"no-such-dir")

(* ------------------------------------------------------------------ *)
(* Long-lived process regression: a resident daemon cycles telemetry
   (enable -> serve requests -> snapshot -> reset -> disable) for its
   whole lifetime. The generation-stamped handle caches must stay
   valid across every cycle — a stale cell after [reset] would count
   into a dead registry — and [live_instruments] must not grow with
   request count: interning is per generation, not per request. *)

let cycle_src =
  {|
struct cell_t { v: int }

func main() {
entry:
  c = alloc pmem cell_t
  store c->v, 1     @ cy.c:10
  flush exact c->v  @ cy.c:11
  fence             @ cy.c:12
  ret
}
|}

let test_serve_cycles_bound_instruments () =
  let cache = Serve.Cache.create () in
  let params = Serve.Cache.default_params Analysis.Model.Strict in
  let serve_once () =
    match Serve.Cache.check cache ~name:"cy.nvmir" ~params ~text:cycle_src with
    | Ok o -> o
    | Error e -> Alcotest.fail ("serve request failed: " ^ e)
  in
  ignore (serve_once ()) (* prime: later cycles are all request hits *);
  let steady = ref (-1) in
  for cycle = 1 to 12 do
    Obs.Metrics.reset ();
    Obs.set_enabled true;
    (* several requests per cycle: live_instruments must depend on the
       instrument set, never on the request count *)
    for _ = 1 to 5 do
      ignore (serve_once ());
      Serve.Cache.observe_latency 1_000
    done;
    let live = Obs.Metrics.live_instruments () in
    let s = Obs.Metrics.snapshot () in
    Obs.set_enabled false;
    if !steady < 0 then steady := live
    else
      check Alcotest.int
        (Fmt.str "cycle %d: live instruments stable" cycle)
        !steady live;
    check Alcotest.bool "live instruments bounded" true (live <= 16);
    (match Obs.Metrics.find s "serve.requests" with
    | Some (Obs.Metrics.Count n) ->
      check Alcotest.int
        (Fmt.str "cycle %d: requests counted into the live generation" cycle)
        5 n
    | _ -> Alcotest.fail "serve.requests missing after re-enable");
    match Obs.Metrics.find s "serve.request_latency_ns" with
    | Some (Obs.Metrics.Dist d) ->
      check Alcotest.int
        (Fmt.str "cycle %d: latency observations counted" cycle)
        5 d.Obs.Metrics.h_count
    | _ -> Alcotest.fail "serve.request_latency_ns missing after re-enable"
  done;
  Obs.Metrics.reset ();
  check Alcotest.int "nothing survives the final reset" 0
    (Obs.Metrics.live_instruments ())

let suite =
  [
    tc "registry basics" `Quick test_registry_basics;
    tc "catalog registration" `Quick test_catalog_registration;
    tc "disabled path allocates nothing" `Quick test_disabled_allocates_nothing;
    tc "checker invariant under telemetry" `Quick
      test_checker_invariant_under_telemetry;
    tc "pool worker stats" `Quick test_pool_worker_stats;
    test_qcheck_concurrent_spans;
    tc "blind-spot corpus round-trip" `Quick test_blind_spot_corpus_roundtrip;
    tc "serve cycles keep handle caches valid and instruments bounded" `Quick
      test_serve_cycles_bound_instruments;
  ]
