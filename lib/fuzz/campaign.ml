(* Fuzzing campaigns: drive [Exec] over a budget of schedule genomes.

   Guided mode is AFL-shaped, adapted to the tiny-but-structured
   schedule space:

   - deterministic stage 1: sweep the single probe across every
     boundary index (the PMRace delay-injection sweep);
   - deterministic stage 2 (multi-client): sweep a single context
     switch across every boundary index;
   - havoc: mutate parents drawn from the seed pool, where a parent's
     energy is what its discovery contributed in coverage novelty —
     with new WAW/RAW dependence-pair bits weighted 4x over general
     bits, per the PM-aware power schedule.

   Random mode (the ablation baseline) spends the same budget on
   genomes drawn uniformly: a uniform probe index plus, half the time,
   a uniform context switch.

   Determinism: executions are pure functions of their genome, batches
   are merged in submission order, and every random draw comes from the
   purpose-split stream [Gen.stream seed (Schedule exec_index)] — so an
   outcome is a pure function of (target, mode, seed, budget),
   independent of the pool's domain count. *)

let m_novel =
  Obs.Metrics.counter "fuzz.novel_schedules"
    ~desc:"schedules whose coverage added unseen bits to the campaign map"

type mode = Guided | Random

let mode_name = function Guided -> "guided" | Random -> "random"

type target = {
  tname : string;
  prog : Nvmir.Prog.t;
  model : Analysis.Model.t;
  entry : string;
  entry_args : int list;
  clients : int;
}

type outcome = {
  target : string;
  mode : mode;
  budget : int;
  executions : int;  (** fuzzed schedules run (baseline replay excluded) *)
  nboundaries : int;  (** genome index space, from the baseline replay *)
  novel_schedules : int;
  pair_bits : int;  (** distinct WAW/RAW dependence-pair bits seen *)
  aborted : int;
  baseline_warnings : Analysis.Warning.t list;
      (** fixed-schedule replay (no probe, no switches) *)
  warnings : Analysis.Warning.t list;
      (** union over the whole campaign, deduplicated and sorted *)
  coverage : string;  (** digest of the accumulated seen-map *)
}

(* Stamp the reproducing genome and the execution's coverage digest
   into any fuzz witnesses [Detect] left blank — the detector observes
   the transition but only the campaign knows which schedule produced
   it. No-op unless witness capture is enabled. *)
let stamp_witnesses genome (r : Exec.result) =
  if not (Analysis.Witness.enabled ()) then r.Exec.warnings
  else
    let g = Genome.to_string genome in
    let digest = Coverage.fingerprint r.Exec.cov in
    List.map
      (fun (w : Analysis.Warning.t) ->
        match w.Analysis.Warning.witness with
        | Some (Analysis.Witness.Fuzz f) when f.f_genome = "" ->
          Analysis.Warning.with_witness w
            (Analysis.Witness.Fuzz
               { f with f_genome = g; f_schedule = digest })
        | _ -> w)
      r.Exec.warnings

let run ?(seed = 1) ?(budget = 16) ?domains ~mode target =
  Obs.Span.with_ ~name:"fuzz-campaign"
    ~args:[ ("target", target.tname); ("mode", mode_name mode) ]
  @@ fun () ->
  let exec genome =
    Exec.run ~prog:target.prog ~model:target.model ~entry:target.entry
      ~entry_args:target.entry_args ~clients:target.clients ~genome ()
  in
  let baseline = exec Genome.initial in
  let nb = max 1 baseline.nboundaries in
  let seen = Coverage.seen_create () in
  ignore (Coverage.merge seen baseline.cov);
  let executions = ref 0 in
  let novel = ref 0 in
  let pair_bits = ref 0 in
  let aborted = ref 0 in
  let acc = ref (stamp_witnesses Genome.initial baseline) in
  let pool = ref [ (Genome.initial, 1) ] in
  let run_batch genomes =
    if genomes <> [] then begin
      let results =
        Pool.map ?domains ~chunk:1 (Pool.default ()) exec genomes
      in
      (* merge in submission order: the seed pool and novelty counters
         evolve identically whatever the domain count *)
      List.iter2
        (fun g (r : Exec.result) ->
          incr executions;
          let nm, np = Coverage.merge seen r.Exec.cov in
          pair_bits := !pair_bits + np;
          if nm + np > 0 then begin
            incr novel;
            Obs.Metrics.incr m_novel;
            pool := (g, 1 + nm + (4 * np)) :: !pool
          end;
          if r.Exec.aborted <> None then incr aborted;
          acc := stamp_witnesses g r @ !acc)
        genomes results
    end
  in
  let remaining () = budget - !executions in
  (match mode with
  | Guided ->
    (* stage 1: probe sweep *)
    run_batch (List.init (min budget nb) Genome.probe);
    (* stage 2: single-switch sweep *)
    if target.clients > 1 then
      run_batch
        (List.init
           (min (remaining ()) nb)
           (fun i -> Genome.switch_at ~at:i ~target:1));
    (* havoc: energy-weighted parents, PM-aware power schedule *)
    while remaining () > 0 do
      let batch =
        List.init
          (min 8 (remaining ()))
          (fun j ->
            let rng =
              Workloads.Gen.stream seed
                (Workloads.Gen.Schedule (!executions + j))
            in
            let total = List.fold_left (fun a (_, e) -> a + e) 0 !pool in
            let pick = Workloads.Gen.next_int rng (max 1 total) in
            let parent =
              let rec go n = function
                | [] -> Genome.initial
                | [ (g, _) ] -> g
                | (g, e) :: rest -> if n < e then g else go (n - e) rest
              in
              go pick !pool
            in
            Genome.mutate rng ~nboundaries:nb ~nclients:target.clients parent)
      in
      run_batch batch
    done
  | Random ->
    run_batch
      (List.init budget (fun i ->
           let rng = Workloads.Gen.stream seed (Workloads.Gen.Schedule i) in
           let probe_at = Workloads.Gen.next_int rng nb in
           let switches =
             if target.clients > 1 && Workloads.Gen.next_int rng 2 = 0 then
               [
                 {
                   Genome.at = Workloads.Gen.next_int rng nb;
                   target =
                     1 + Workloads.Gen.next_int rng (target.clients - 1);
                 };
               ]
             else []
           in
           { Genome.probe_at; switches })));
  {
    target = target.tname;
    mode;
    budget;
    executions = !executions;
    nboundaries = nb;
    novel_schedules = !novel;
    pair_bits = !pair_bits;
    aborted = !aborted;
    baseline_warnings = baseline.Exec.warnings;
    warnings = Analysis.Warning.dedup (Analysis.Warning.sort !acc);
    coverage = Coverage.seen_fingerprint seen;
  }

(* ------------------------------------------------------------------ *)
(* Recovery scoring against injection ground truth.

   Mirrors [Inject.Evaluate]'s lenient dynamic matching: the online
   detectors report at observation sites, so a recovery is any campaign
   warning whose rule is in the truth's expected set at the expected
   file — minus the (rule, file) pairs the base program's campaign
   produces under the same mode/seed/budget, so pre-existing noise
   never counts as a catch. *)

let new_warnings o =
  let baseline_keys = List.map Analysis.Warning.dedup_key o.baseline_warnings in
  List.filter
    (fun w -> not (List.mem (Analysis.Warning.dedup_key w) baseline_keys))
    o.warnings

let lenient_matches (e : Inject.Mutation.expect) (w : Analysis.Warning.t) =
  List.mem w.Analysis.Warning.rule e.Inject.Mutation.rules
  && String.equal w.Analysis.Warning.loc.Nvmir.Loc.file e.Inject.Mutation.file

let recovers ~(truth : Inject.Mutation.truth) ~(base : outcome) (o : outcome) =
  let base_keys =
    List.map
      (fun (w : Analysis.Warning.t) ->
        (w.Analysis.Warning.rule, w.Analysis.Warning.loc.Nvmir.Loc.file))
      base.warnings
  in
  List.exists
    (fun (w : Analysis.Warning.t) ->
      lenient_matches truth.Inject.Mutation.primary w
      && not
           (List.mem
              (w.Analysis.Warning.rule, w.Analysis.Warning.loc.Nvmir.Loc.file)
              base_keys))
    o.warnings
