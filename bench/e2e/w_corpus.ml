(* corpus-pipeline: each request is one pass over the 20 corpus
   programs, in a fresh seeded order, running each the way [deepmc check
   --entry E --explore-crash-images --verify-recovery] does: parse,
   static check from the declared roots, the entry under the dynamic
   checker, crash images at bound 256, and recovery verification where a
   [recover] function exists. A request is a whole pass, not one
   program, because single programs differ in cost by up to 20x: the
   percentiles of a per-program stream sit in the gaps between programs
   and jump when a run is a little slower or faster.

   Ground truth is the corpus's hand-written expectations: every
   expected warning and nothing else. The two recovery programs have no
   static expectations; their truth is that the CRC-guarded journal
   recovers consistently and the unguarded one does not. *)

module T = Corpus.Types

let programs = Array.of_list (Corpus.Registry.all @ Corpus.Recovery.programs)

let is_recovery_program (p : T.program) =
  List.exists
    (fun (q : T.program) -> String.equal q.T.name p.T.name)
    Corpus.Recovery.programs

let oracle (p : T.program) ~warnings ~recovery =
  if is_recovery_program p then
    let guarded = String.equal p.T.name Corpus.Recovery.guarded.T.name in
    match recovery with
    | None -> [ "recovery verification did not run" ]
    | Some r when Recover.consistent r <> guarded ->
      [
        Fmt.str "recovery judged %s, expected %s"
          (if Recover.consistent r then "consistent" else "inconsistent")
          (if guarded then "consistent" else "inconsistent");
      ]
    | Some _ -> []
  else
    let s = Deepmc.Report.score (T.expectations p) warnings in
    List.map
      (fun (e : Deepmc.Report.expectation) ->
        Fmt.str "missed %a" Deepmc.Report.pp_expectation e)
      s.Deepmc.Report.missed
    @ List.map
        (fun w -> Fmt.str "unexpected %a" Analysis.Warning.pp w)
        s.Deepmc.Report.unexpected

let analyze ~seed (p : T.program) =
  let report =
    Deepmc.Driver.analyze
      (Deepmc.Driver.make (T.model p))
      ~roots:p.T.roots ~entry:p.T.entry ~args:p.T.entry_args
      ~explore_crash_images:true ~crash_bound:Split.crash_bound ~seed
      ~verify_recovery:true (T.parse p)
  in
  (report.Deepmc.Driver.warnings, report.Deepmc.Driver.recovery)

let analyze_traced ~seed (p : T.program) =
  let prog =
    Tracer.with_ "Parser.parse" (fun () ->
        Nvmir.Parser.parse ~file:(p.T.name ^ ".nvmir") p.T.source)
  in
  Layers.add "nvmir.bytes" (float_of_int (String.length p.T.source));
  let a =
    Split.analyze ~model:(T.model p) ~roots:p.T.roots ~entry:p.T.entry
      ~args:p.T.entry_args ~seed prog
  in
  (prog, a.Split.warnings, a.Split.recovery)

(* One pass, in order; the failures are prefixed with the program. *)
let pass ~seed ~traced order =
  Array.map
    (fun k ->
      let p = programs.(k) in
      if traced then begin
        let prog, warnings, recovery = analyze_traced ~seed p in
        (p, Some prog, warnings, recovery)
      end
      else
        let warnings, recovery = analyze ~seed p in
        (p, None, warnings, recovery))
    order

let setup ~seed ~traced =
  let n = Array.length programs in
  let rng = Workload.rng ~seed 0xC0 in
  let shuffled () =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* priming: one untimed pass *)
  ignore (pass ~seed ~traced:false (Array.init n Fun.id));
  let run i =
    let order = shuffled () in
    let r = Workload.timed ~traced i (fun () -> pass ~seed ~traced order) in
    (match fst r with
    | Ok results ->
      Array.iter
        (fun (_, prog, _, _) -> Option.iter Split.callgraph_probe prog)
        results
    | Error _ -> ());
    Workload.outcome ~input:(Fmt.str "pass %d" i) r (fun results ->
        Array.to_list results
        |> List.concat_map (fun (p, _, warnings, recovery) ->
               List.map
                 (fun f -> p.T.name ^ ": " ^ f)
                 (oracle p ~warnings ~recovery)))
  in
  { Workload.run; verify = (fun () -> []) }

let workload = { Workload.name = "corpus-pipeline"; domains = 1; setup }
