(* Identity digests of the static tier: one line per program for its
   DSG and serve cache keys, and one per program and model for what the
   checker reports. [test_identity.ml] compares them with the digests
   pinned in [identity.expected], so a change to the front end that
   renumbers a DSG node, moves a warning or changes a count fails
   there, even where every warning still reads the same.

   Per program:
   - [dsg]: every function's {!Dsa.Dsg.summary_hash} (canonical node
     ids included) on a freshly built DSG, and the arena's node count;
   - [keys]: every default root's serve closure key
     ({!Analysis.Fingerprint.root_key});
   - per model: the checker's trace, event and peak-path counts, the
     arena's node count and every function's summary hash after the
     walk (planning resolves places and may add nodes), and the
     warnings as text and as JSON with their witnesses.

   [identity.expected] is [lines ()], one per line, as the commit
   before the front end's array-backed rewrite computed them. A change
   meant to alter the output regenerates it the same way and says
   why. *)

let hex = Nvmir.Chash.to_hex

let summaries dsg prog =
  List.fold_left
    (fun h fname ->
      Nvmir.Chash.combine
        (Nvmir.Chash.add_string h fname)
        (Dsa.Dsg.summary_hash dsg ~fname))
    Nvmir.Chash.empty
    (Nvmir.Prog.func_names prog)

let warnings_digest ws =
  List.fold_left
    (fun h w ->
      let h = Nvmir.Chash.add_string h (Fmt.str "%a" Analysis.Warning.pp w) in
      Nvmir.Chash.add_string h
        (Deepmc.Json_report.to_string (Deepmc.Json_report.of_warning w)))
    Nvmir.Chash.empty ws

let program_lines label ?roots prog =
  let config = Analysis.Config.default in
  let dsg = Analysis.Config.build_dsg config prog in
  let table = Analysis.Fingerprint.build dsg prog in
  let keys =
    List.fold_left
      (fun h r ->
        match Analysis.Fingerprint.root_key table r with
        | Some k -> Nvmir.Chash.combine (Nvmir.Chash.add_string h r) k
        | None -> Nvmir.Chash.add_string h r)
      Nvmir.Chash.empty
      (Analysis.Fingerprint.roots table)
  in
  let per_model model =
    let r = Analysis.Checker.check ~config ?roots ~model prog in
    let dsg = r.Analysis.Checker.dsg in
    Fmt.str "%s %s traces=%d events=%d peak=%d nodes=%d dsg=%s warnings=%d:%s"
      label
      (Analysis.Model.to_string model)
      r.Analysis.Checker.trace_count r.Analysis.Checker.event_count
      r.Analysis.Checker.peak_paths
      (Dsa.Arena.size (Dsa.Dsg.arena dsg))
      (hex (summaries dsg prog))
      (List.length r.Analysis.Checker.warnings)
      (hex (warnings_digest r.Analysis.Checker.warnings))
  in
  Fmt.str "%s dsg nodes=%d %s" label
    (Dsa.Arena.size (Dsa.Dsg.arena dsg))
    (hex (summaries dsg prog))
  :: Fmt.str "%s keys %s" label (hex keys)
  :: List.map per_model Analysis.Model.all

(* [dune runtest] runs from the test directory, [dune exec] from the
   root. *)
let examples_dir () =
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let synth_configs =
  List.map
    (fun (seed, ptr_arith) ->
      {
        Corpus.Synth.default_config with
        seed;
        nfuncs = 400;
        buggy_fraction_pct = 20;
        ptr_arith;
      })
    [ (1, false); (2, false); (3, true); (4, true) ]

let lines () =
  let with_witnesses = Analysis.Witness.enabled () in
  Analysis.Witness.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Witness.set_enabled with_witnesses)
  @@ fun () ->
  let corpus =
    List.concat_map
      (fun (p : Corpus.Types.program) ->
        let roots = p.Corpus.Types.roots in
        program_lines ("corpus/" ^ p.name) ~roots (Corpus.Types.parse p)
        @
        match Corpus.Types.parse_fixed p with
        | Some fixed -> program_lines ("fixed/" ^ p.name) ~roots fixed
        | None -> [])
      (Corpus.Registry.all @ Corpus.Recovery.programs)
  in
  let examples =
    let dir = examples_dir () in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nvmir")
    |> List.sort String.compare
    |> List.concat_map (fun f ->
           program_lines ("examples/" ^ f)
             (Nvmir.Parser.parse_file (Filename.concat dir f)))
  in
  let synth =
    List.concat_map
      (fun (cfg : Corpus.Synth.config) ->
        program_lines
          (Fmt.str "synth/seed=%d,ptr_arith=%b" cfg.seed cfg.ptr_arith)
          ~roots:(Corpus.Synth.roots cfg)
          (fst (Corpus.Synth.generate cfg)))
      synth_configs
  in
  (* every function a root, so the cyclic ones are checked as roots too;
     the last program carries an element offset down a call chain *)
  let recursive =
    List.concat_map
      (fun (what, src) ->
        let prog = Nvmir.Parser.parse src in
        program_lines ("recursive/" ^ what) ~roots:(Nvmir.Prog.func_names prog)
          prog)
      [
        ("self", Test_trace.recursion_src);
        ("cyclic", Test_rules_oracle.cyclic_src);
        ("offset-chain", Test_dsa.offset_chain_src);
      ]
  in
  corpus @ examples @ synth @ recursive
