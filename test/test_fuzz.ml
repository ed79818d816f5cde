(* The interleaving fuzzer (lib/fuzz): executions and campaigns are
   deterministic (same seed and genome, byte-identical coverage
   fingerprint and warning set, whatever the pool's domain count); the
   purpose-split RNG kills the historical [seed + client] collision;
   and one directed workload per inconsistency class is provably missed
   by the fixed-schedule replay yet found by a guided campaign within a
   pinned budget. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Directed workload 1: inter-thread persistency inconsistency.
   Client 1 reads client 0's not-yet-persisted [src] and makes its own
   derived [dst] durable; [src] and [dst] live on different cache lines
   so the consumer's flush cannot accidentally persist the source. The
   fixed schedule runs client 0 to completion first (its fence drains
   everything), so only a fuzzed context switch exposes the race. *)

let interthread_src =
  {|
struct pair_t { src: int, p1: int, p2: int, p3: int, p4: int, p5: int,
                p6: int, p7: int, dst: int }

func fuzz_setup() {
entry:
  p = alloc pmem pair_t
  ret p
}

func fuzz_client_0(p: ptr pair_t) {
entry:
  epoch_begin          @ it.c:10
  store p->src, 42     @ it.c:11
  flush exact p->src   @ it.c:12
  fence                @ it.c:13
  epoch_end            @ it.c:14
  ret
}

func fuzz_client_1(p: ptr pair_t) {
entry:
  epoch_begin          @ it.c:20
  x = load p->src      @ it.c:21
  store p->dst, x      @ it.c:22
  flush exact p->dst   @ it.c:23
  fence                @ it.c:24
  epoch_end            @ it.c:25
  ret
}
|}

(* Directed workload 2: synchronization-boundary durability. The first
   transaction's flush is ordered by nothing but the commit fence of
   [tx_end] itself — the delete-fence shape the injection campaign
   persists as a dynamic-tier false negative. The fixed-schedule replay
   sails through (the commit fence retroactively drains the flush);
   only a delay probe at the [tx_end] boundary sees it in flight. *)

let sync_src =
  {|
struct rec_t { a: int, b: int }

func sync_update(h: ptr rec_t) {
entry:
  tx_begin             @ sync.c:10
  tx_add exact h->a    @ sync.c:11
  store h->a, 1        @ sync.c:12
  flush exact h->a     @ sync.c:13
  tx_end               @ sync.c:15
  tx_begin             @ sync.c:20
  tx_add exact h->b    @ sync.c:21
  store h->b, 2        @ sync.c:22
  flush exact h->b     @ sync.c:23
  fence                @ sync.c:24
  tx_end               @ sync.c:25
  ret
}

func main() {
entry:
  h = alloc pmem rec_t
  call sync_update(h)
  ret
}
|}

let interthread_prog = lazy (Nvmir.Parser.parse ~file:"it.nvmir" interthread_src)
let sync_prog = lazy (Nvmir.Parser.parse ~file:"sync.nvmir" sync_src)

let interthread_target =
  lazy
    {
      Fuzz.Campaign.tname = "interthread";
      prog = Lazy.force interthread_prog;
      model = Analysis.Model.Epoch;
      entry = "main";
      entry_args = [];
      clients = 2;
    }

let sync_target =
  lazy
    {
      Fuzz.Campaign.tname = "sync";
      prog = Lazy.force sync_prog;
      model = Analysis.Model.Epoch;
      entry = "main";
      entry_args = [];
      clients = 1;
    }

let has_rule rule ws =
  List.exists (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.rule = rule) ws

let warning_keys ws = List.map Analysis.Warning.dedup_key ws

(* ------------------------------------------------------------------ *)
(* Determinism: an execution is a pure function of (program, genome). *)

let genome_of_ints probe at target =
  let g = Fuzz.Genome.probe (probe mod 16) in
  if target mod 3 = 0 then g
  else
    {
      g with
      Fuzz.Genome.switches =
        [ { Fuzz.Genome.at = at mod 16; target = 1 + (target mod 1) } ];
    }

let prop_exec_deterministic =
  QCheck.Test.make ~name:"same genome, byte-identical execution" ~count:40
    QCheck.(triple small_nat small_nat small_nat)
    (fun (probe, at, target) ->
      let genome = genome_of_ints probe at target in
      let run () =
        Fuzz.Exec.run
          ~prog:(Lazy.force interthread_prog)
          ~model:Analysis.Model.Epoch ~clients:2 ~genome ()
      in
      let a = run () and b = run () in
      String.equal a.Fuzz.Exec.fingerprint b.Fuzz.Exec.fingerprint
      && warning_keys a.Fuzz.Exec.warnings = warning_keys b.Fuzz.Exec.warnings
      && a.Fuzz.Exec.nboundaries = b.Fuzz.Exec.nboundaries)

let campaign_domain_independence () =
  let run domains =
    Fuzz.Campaign.run ~seed:7 ~budget:24 ~domains ~mode:Fuzz.Campaign.Guided
      (Lazy.force interthread_target)
  in
  let a = run 1 and b = run 3 in
  check Alcotest.string "coverage digest" a.Fuzz.Campaign.coverage
    b.Fuzz.Campaign.coverage;
  check Alcotest.int "novel schedules" a.Fuzz.Campaign.novel_schedules
    b.Fuzz.Campaign.novel_schedules;
  check Alcotest.int "pair bits" a.Fuzz.Campaign.pair_bits
    b.Fuzz.Campaign.pair_bits;
  check Alcotest.bool "warning sets" true
    (warning_keys a.Fuzz.Campaign.warnings
    = warning_keys b.Fuzz.Campaign.warnings)

(* ------------------------------------------------------------------ *)
(* RNG purpose-splitting: the concurrent harness used to seed client
   [c] with [Gen.rng (seed + c)], so (seed 5, client 1) and (seed 4,
   client 2) shared one stream. The split streams must collide neither
   across seeds nor across purposes, and must stay reproducible. *)

let draws rng = List.init 8 (fun _ -> Workloads.Gen.next_int rng 1_000_000)

let gen_stream_split () =
  let client seed c = draws (Workloads.Gen.stream seed (Workloads.Gen.Client c)) in
  let schedule seed i =
    draws (Workloads.Gen.stream seed (Workloads.Gen.Schedule i))
  in
  check Alcotest.bool "historical seed+c collision is gone" false
    (client 5 1 = client 4 2);
  check Alcotest.bool "adjacent clients differ" false (client 1 0 = client 1 1);
  check Alcotest.bool "purposes are independent streams" false
    (client 1 3 = schedule 1 3);
  check Alcotest.bool "streams are reproducible" true (client 9 2 = client 9 2)

(* ------------------------------------------------------------------ *)
(* Directed regressions: fixed schedule misses, guided campaign finds. *)

let directed_interthread () =
  let baseline =
    Fuzz.Exec.run
      ~prog:(Lazy.force interthread_prog)
      ~model:Analysis.Model.Epoch ~clients:2 ~genome:Fuzz.Genome.initial ()
  in
  check Alcotest.int "fixed schedule sees nothing" 0
    (List.length baseline.Fuzz.Exec.warnings);
  let o =
    Fuzz.Campaign.run ~seed:1 ~budget:24 ~mode:Fuzz.Campaign.Guided
      (Lazy.force interthread_target)
  in
  check Alcotest.int "campaign baseline replay is clean" 0
    (List.length o.Fuzz.Campaign.baseline_warnings);
  check Alcotest.bool "guided campaign exposes the inter-thread race" true
    (has_rule Analysis.Warning.Strand_dependence o.Fuzz.Campaign.warnings)

let directed_sync () =
  let baseline =
    Fuzz.Exec.run ~prog:(Lazy.force sync_prog) ~model:Analysis.Model.Epoch
      ~clients:1 ~genome:Fuzz.Genome.initial ()
  in
  check Alcotest.bool "fixed schedule misses the unordered flush" false
    (has_rule Analysis.Warning.Missing_persist_barrier
       baseline.Fuzz.Exec.warnings);
  let o =
    Fuzz.Campaign.run ~seed:1 ~budget:24 ~mode:Fuzz.Campaign.Guided
      (Lazy.force sync_target)
  in
  check Alcotest.bool "campaign baseline replay also misses it" false
    (has_rule Analysis.Warning.Missing_persist_barrier
       o.Fuzz.Campaign.baseline_warnings);
  check Alcotest.bool "probe at the tx boundary finds it" true
    (has_rule Analysis.Warning.Missing_persist_barrier o.Fuzz.Campaign.warnings)

(* The inter-thread detector's crash-image validation: if the producer
   persists before the consumer builds on the value, the candidate is a
   false positive and must be killed, not reported. The fixed schedule
   (producer runs to completion first) is exactly that case — covered
   by [directed_interthread]'s baseline assertion — so here we check
   the genome that found the race is replayable and stays validated. *)

let interthread_validated () =
  let run genome =
    Fuzz.Exec.run
      ~prog:(Lazy.force interthread_prog)
      ~model:Analysis.Model.Epoch ~clients:2 ~genome ()
  in
  let racy = run (Fuzz.Genome.switch_at ~at:1 ~target:1) in
  check Alcotest.bool "switch before the producer's flush races" true
    (has_rule Analysis.Warning.Strand_dependence racy.Fuzz.Exec.warnings);
  (* switching after the producer's fence (boundary 3) leaves nothing
     volatile for the consumer to build on: no warning *)
  let safe = run (Fuzz.Genome.switch_at ~at:3 ~target:1) in
  check Alcotest.bool "switch after the producer's fence is clean" false
    (has_rule Analysis.Warning.Strand_dependence safe.Fuzz.Exec.warnings)

(* A clean pointer-arithmetic generator program stays clean under every
   fuzzed schedule: the dynamic tier resolves the computed aliases the
   same way the static offset lattice does, so no schedule-dependent
   delta appears. *)
let ptr_arith_synth_campaign () =
  let cfg =
    {
      Corpus.Synth.default_config with
      Corpus.Synth.seed = 11;
      nfuncs = 6;
      calls_per_func = 1;
      buggy_fraction_pct = 0;
      ptr_arith = true;
    }
  in
  let prog, _ = Corpus.Synth.generate cfg in
  let target =
    {
      Fuzz.Campaign.tname = "synth-ptr-arith";
      prog;
      model = Analysis.Model.Strict;
      entry = "main";
      entry_args = [];
      clients = 1;
    }
  in
  let o = Fuzz.Campaign.run ~seed:1 ~budget:6 ~mode:Fuzz.Campaign.Guided target in
  check Alcotest.int "no schedule-dependent warnings on a clean program"
    (List.length o.Fuzz.Campaign.baseline_warnings)
    (List.length o.Fuzz.Campaign.warnings)

(* The workload fuzz targets honour the fuzzer's program convention and
   replay deterministically: every generator emits fuzz_setup plus one
   fuzz_client_<c> per client, and same (workload, seed, genome) means
   byte-identical campaigns. *)
let workload_targets_convention () =
  List.iter
    (fun (wname, (gen : Workloads.Fuzz_targets.gen)) ->
      let prog = gen ~clients:3 ~seed:5 () in
      check Alcotest.(list string) (wname ^ ": validates") []
        (List.map (Fmt.str "%a" Nvmir.Prog.pp_error)
           (Nvmir.Prog.validate prog));
      check Alcotest.bool (wname ^ ": fuzz_setup") true
        (Nvmir.Prog.find_func prog "fuzz_setup" <> None);
      for c = 0 to 2 do
        check Alcotest.bool
          (Fmt.str "%s: fuzz_client_%d" wname c)
          true
          (Nvmir.Prog.find_func prog (Fmt.str "fuzz_client_%d" c) <> None)
      done;
      let target =
        {
          Fuzz.Campaign.tname = wname;
          prog;
          model = Analysis.Model.Epoch;
          entry = "main";
          entry_args = [];
          clients = 3;
        }
      in
      let run () =
        Fuzz.Campaign.run ~seed:2 ~budget:5 ~mode:Fuzz.Campaign.Guided target
      in
      let a = run () and b = run () in
      check Alcotest.string
        (wname ^ ": campaign deterministic")
        a.Fuzz.Campaign.coverage b.Fuzz.Campaign.coverage)
    Workloads.Fuzz_targets.all

(* Why the coverage feedback stays: on a multi-client workload target
   its switch-point search finds more schedule-dependent warnings than a
   uniform draw of the same budget. The single-client known misses of
   the bench cannot show this: there the probe sweep alone covers every
   boundary. *)
let guided_beats_random_multi_client () =
  let target =
    {
      Fuzz.Campaign.tname = "memslap";
      prog = Workloads.Fuzz_targets.memslap ~clients:2 ~seed:1 ();
      model = Analysis.Model.Strict;
      entry = "main";
      entry_args = [];
      clients = 2;
    }
  in
  let run mode = Fuzz.Campaign.run ~seed:1 ~budget:128 ~mode target in
  let guided = run Fuzz.Campaign.Guided and random = run Fuzz.Campaign.Random in
  let found o = List.length (Fuzz.Campaign.new_warnings o) in
  check Alcotest.bool
    (Fmt.str "guided finds more new warnings (%d) than random (%d)"
       (found guided) (found random))
    true
    (found guided > found random);
  check Alcotest.bool "guided explores novel schedules" true
    (guided.Fuzz.Campaign.novel_schedules > 0)

let suite =
  [
    tc "gen: purpose-split streams" `Quick gen_stream_split;
    tc "synth ptr-arith target stays clean" `Quick ptr_arith_synth_campaign;
    tc "workload targets: convention and determinism" `Quick
      workload_targets_convention;
    tc "campaign: domain-count independence" `Quick campaign_domain_independence;
    tc "campaign: guided beats random on multi-client memslap" `Quick
      guided_beats_random_multi_client;
    tc "directed: inter-thread inconsistency" `Quick directed_interthread;
    tc "directed: synchronization boundary" `Quick directed_sync;
    tc "directed: validation kills safe interleavings" `Quick
      interthread_validated;
    QCheck_alcotest.to_alcotest prop_exec_deterministic;
  ]
