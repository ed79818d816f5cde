(* Recall/precision evaluation of the detectors over a mutant
   population. See evaluate.mli for the measurement rules. *)

module W = Analysis.Warning
module J = Deepmc.Json_report

type base = {
  bname : string;
  model : Analysis.Model.t;
  prog : Nvmir.Prog.t;
  roots : string list;
  entry : string option;
  entry_args : int list;
  config : Analysis.Config.t;
  static_baseline : (W.rule_id * string * int) list;
  dynamic_baseline : (W.rule_id * string) list;
}

let opt_roots = function [] -> None | rs -> Some rs

let static_warnings ~config ~model ~roots prog =
  let res =
    Analysis.Checker.check ~config ?roots:(opt_roots roots) ~model prog
  in
  res.Analysis.Checker.warnings

let dynamic_warnings ~model ~entry ~args prog =
  let pmem = Runtime.Pmem.create () in
  let checker = Runtime.Dynamic.create ~model () in
  Runtime.Dynamic.attach checker pmem;
  let interp = Runtime.Interp.create ~pmem prog in
  (try ignore (Runtime.Interp.run ~entry ~args interp) with
  | Runtime.Interp.Runtime_error _ | Runtime.Interp.Out_of_fuel -> ());
  Runtime.Dynamic.warnings checker

let make_base ~config ~bname ~model ~roots ~entry ~entry_args prog =
  let static_baseline =
    List.map W.dedup_key (static_warnings ~config ~model ~roots prog)
  in
  let dynamic_baseline =
    match entry with
    | None -> []
    | Some entry ->
      List.sort_uniq compare
        (List.map
           (fun (w : W.t) -> (w.W.rule, w.W.loc.Nvmir.Loc.file))
           (dynamic_warnings ~model ~entry ~args:entry_args prog))
  in
  { bname; model; prog; roots; entry; entry_args; config; static_baseline;
    dynamic_baseline }

(* [config] configures the whole pipeline for each base: autofix,
   baselines, mutation-site admission and static scoring all agree on
   one DSG configuration. Ablating [offset_sensitive] regenerates the
   exact pre-offset-lattice population and results — including the 10
   blind-spot false negatives the fuzz bench scores against. Note the
   offset-aware pipeline admits MORE mutation sites (stores and flushes
   reached through pointer-arithmetic aliases are persistent-visible
   now), so the static-tier denominator grows with it. *)
let corpus_bases ?(config = Analysis.Config.default) ?framework ?name () =
  let progs =
    match (name, framework) with
    | Some n, _ -> Option.to_list (Corpus.Registry.find n)
    | None, Some f -> Corpus.Registry.by_framework f
    | None, None -> Corpus.Registry.all
  in
  List.map
    (fun (p : Corpus.Types.program) ->
      let model = Corpus.Types.model p in
      let fixed, _, _ =
        Deepmc.Autofix.fix_until_clean ~config
          ?roots:(opt_roots p.Corpus.Types.roots) ~model
          (Corpus.Types.parse p)
      in
      make_base ~config ~bname:p.Corpus.Types.name ~model
        ~roots:p.Corpus.Types.roots
        ~entry:(Some p.Corpus.Types.entry)
        ~entry_args:p.Corpus.Types.entry_args fixed)
    progs

let synth_bases ?(config = Analysis.Config.default) ~seed ~count ~nfuncs () =
  List.init count (fun k ->
      let cfg =
        {
          Corpus.Synth.default_config with
          Corpus.Synth.seed = seed + k;
          nfuncs;
          buggy_fraction_pct = 0;
        }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      make_base ~config
        ~bname:(Fmt.str "synth%d" (seed + k))
        ~model:Analysis.Model.Strict ~roots:(Corpus.Synth.roots cfg)
        ~entry:(Some "main") ~entry_args:[] prog)

let exemplar_bases ?(config = Analysis.Config.default) () =
  [
    make_base ~config ~bname:Exemplar.name ~model:Exemplar.model
      ~roots:Exemplar.roots ~entry:(Some Exemplar.entry) ~entry_args:[]
      (Exemplar.program ());
  ]

(* ------------------------------------------------------------------ *)

type detection = { applicable : bool; hit : bool; fp : int }

let not_applicable = { applicable = false; hit = false; fp = 0 }

type mutant_result = {
  mutant : Mutation.mutant;
  static_d : detection;
  dynamic_d : detection;
  crash_d : detection;
}

let classify ~matches (truth : Mutation.truth) delta =
  let hit = List.exists (matches truth.Mutation.primary) delta in
  let fp =
    List.length
      (List.filter
         (fun w ->
           (not (matches truth.Mutation.primary w))
           && not
                (List.exists
                   (fun c -> matches c w)
                   truth.Mutation.collateral))
         delta)
  in
  { applicable = true; hit; fp }

let eval_static (b : base) (m : Mutation.mutant) =
  let ws =
    static_warnings ~config:b.config ~model:b.model ~roots:b.roots
      m.Mutation.prog
  in
  let delta =
    List.filter
      (fun w -> not (List.mem (W.dedup_key w) b.static_baseline))
      ws
  in
  classify ~matches:Mutation.expect_matches m.Mutation.truth delta

(* The online checker reports at observation sites (e.g. an unflushed
   line is reported where it was written, a race at the second access),
   so dynamic matching pins the rule and file but not the line. *)
let lenient_matches (e : Mutation.expect) (w : W.t) =
  List.exists (fun r -> r = w.W.rule) e.Mutation.rules
  && String.equal w.W.loc.Nvmir.Loc.file e.Mutation.file

(* The online checker (§4.4) tracks accesses inside epoch/strand
   annotated regions only; an un-annotated (strict-model) program is
   invisible to it, so its mutants are out of the dynamic tier's
   scope rather than missed by it. *)
let has_regions prog =
  List.exists
    (fun (f : Nvmir.Func.t) ->
      List.exists
        (fun (blk : Nvmir.Func.block) ->
          List.exists
            (fun (i : Nvmir.Instr.t) ->
              match i.Nvmir.Instr.kind with
              | Nvmir.Instr.Epoch_begin | Nvmir.Instr.Strand_begin _ -> true
              | _ -> false)
            blk.Nvmir.Func.instrs)
        f.Nvmir.Func.blocks)
    (Nvmir.Prog.funcs prog)

let eval_dynamic (b : base) (m : Mutation.mutant) =
  match b.entry with
  | None -> not_applicable
  | Some _ when not (has_regions m.Mutation.prog) -> not_applicable
  | Some entry ->
    let ws =
      dynamic_warnings ~model:b.model ~entry ~args:b.entry_args
        m.Mutation.prog
    in
    let delta =
      List.filter
        (fun (w : W.t) ->
          not
            (List.mem (w.W.rule, w.W.loc.Nvmir.Loc.file) b.dynamic_baseline))
        ws
    in
    classify ~matches:lenient_matches m.Mutation.truth delta

(* ------------------------------------------------------------------ *)

type cell = { applicable : int; detected : int; fp : int }

let empty_cell = { applicable = 0; detected = 0; fp = 0 }

let add_cell c (d : detection) =
  if not d.applicable then c
  else
    {
      applicable = c.applicable + 1;
      detected = (c.detected + if d.hit then 1 else 0);
      fp = c.fp + d.fp;
    }

let cell_recall c =
  if c.applicable = 0 then None
  else Some (float_of_int c.detected /. float_of_int c.applicable)

let cell_precision c =
  if c.detected + c.fp = 0 then None
  else Some (float_of_int c.detected /. float_of_int (c.detected + c.fp))

type row = {
  operator : Mutation.operator;
  mutants : int;
  static_c : cell;
  dynamic_c : cell;
  crash_c : cell;
}

type summary = {
  seed : int;
  bases : int;
  total_mutants : int;
  rows : row list;
  static_tier_mutants : int;
  static_tier_detected : int;
  static_tier_recall : float;
  known_blind_spot : int;
  results : mutant_result list;
}

(* The historical DSG limitation: stores reached through
   pointer-arithmetic aliases used to be invisible to the static rules,
   so fence-ordering mutants behind such aliases were expected
   static-tier misses. The {!Dsa.Aaddr.offset} lattice closed the gap;
   tracking the count as a metric keeps it pinned at zero (it reappears
   only when offsets are ablated) — growth is a regression, not
   noise. *)
let is_known_blind_spot (r : mutant_result) =
  (match r.mutant.Mutation.truth.Mutation.operator with
  | Mutation.Delete_fence | Mutation.Reorder_fence -> true
  | _ -> false)
  && r.mutant.Mutation.truth.Mutation.tier = Mutation.Static_tier
  && not r.static_d.hit

let m_score_ns =
  Obs.Metrics.histogram "inject.scoring_latency_ns"
    ~desc:"per-mutant static+dynamic scoring latency (labelled op=O)"

let m_blind_spot =
  Obs.Metrics.gauge "inject.blind_spot_fns"
    ~desc:"static-tier fence FNs behind pointer-arith aliases (0 since the offset lattice)"

let run ?domains ?(operators = Mutation.all_operators) ?(seed = 1)
    ?(dynamic = true) ?(crash = true) ?(crash_bound = 192) bases =
  let mutants =
    List.concat_map
      (fun b ->
        List.map
          (fun m -> (b, m))
          (Mutation.mutate ~operators ~config:b.config ~base:b.bname
             ~model:b.model ~roots:b.roots b.prog))
      bases
  in
  (* static + dynamic detectors, one pool task per mutant *)
  let sd =
    Pool.map ?domains ~chunk:1 (Pool.default ())
      (fun (b, m) ->
        let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
        let s = eval_static b m in
        let d = if dynamic then eval_dynamic b m else not_applicable in
        if Obs.enabled () then begin
          let dt = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
          Obs.Metrics.observe m_score_ns dt;
          Obs.Metrics.observe_labelled m_score_ns
            ("op=" ^ Mutation.operator_name m.Mutation.truth.Mutation.operator)
            dt
        end;
        (s, d))
      mutants
  in
  (* crash-space explorer: the whole population in one sweep, plus one
     baseline sweep to compare inconsistent-image counts against *)
  let crash_ds =
    if not crash then List.map (fun _ -> not_applicable) mutants
    else begin
      let baseline_jobs =
        List.filter_map
          (fun b ->
            match b.entry with
            | Some entry ->
              Some
                {
                  Deepmc.Crash_sweep.name = b.bname;
                  prog = b.prog;
                  entry;
                  args = b.entry_args;
                }
            | None -> None)
          bases
      in
      let baseline_counts =
        List.map
          (fun (r : Deepmc.Crash_sweep.program_report) ->
            ( r.Deepmc.Crash_sweep.name,
              r.Deepmc.Crash_sweep.report.Runtime.Crash_space.inconsistent ))
          (Deepmc.Crash_sweep.sweep ?domains ~bound:crash_bound ~seed
             baseline_jobs)
      in
      let jobs =
        List.filter_map
          (fun (b, (m : Mutation.mutant)) ->
            match b.entry with
            | Some entry ->
              Some
                {
                  Deepmc.Crash_sweep.name = m.Mutation.id;
                  prog = m.Mutation.prog;
                  entry;
                  args = b.entry_args;
                }
            | None -> None)
          mutants
      in
      let reports =
        Deepmc.Crash_sweep.sweep ?domains ~bound:crash_bound ~seed jobs
      in
      let by_id =
        List.map
          (fun (r : Deepmc.Crash_sweep.program_report) ->
            (r.Deepmc.Crash_sweep.name, r))
          reports
      in
      List.map
        (fun (b, (m : Mutation.mutant)) ->
          match (b.entry, List.assoc_opt m.Mutation.id by_id) with
          | Some _, Some r ->
            let base_n =
              Option.value ~default:0 (List.assoc_opt b.bname baseline_counts)
            in
            {
              applicable = true;
              hit =
                r.Deepmc.Crash_sweep.report.Runtime.Crash_space.inconsistent
                > base_n;
              fp = 0;
            }
          | _ -> not_applicable)
        mutants
    end
  in
  let results =
    List.map2
      (fun ((_, m), (s, d)) c ->
        { mutant = m; static_d = s; dynamic_d = d; crash_d = c })
      (List.combine mutants sd) crash_ds
  in
  let rows =
    List.filter_map
      (fun op ->
        if not (List.memq op operators) then None
        else
          let rs =
            List.filter
              (fun r -> r.mutant.Mutation.truth.Mutation.operator = op)
              results
          in
          Some
            {
              operator = op;
              mutants = List.length rs;
              static_c =
                List.fold_left
                  (fun c r -> add_cell c r.static_d)
                  empty_cell rs;
              dynamic_c =
                List.fold_left
                  (fun c r -> add_cell c r.dynamic_d)
                  empty_cell rs;
              crash_c =
                List.fold_left (fun c r -> add_cell c r.crash_d) empty_cell rs;
            })
      Mutation.all_operators
  in
  let static_tier =
    List.filter
      (fun r ->
        r.mutant.Mutation.truth.Mutation.tier = Mutation.Static_tier)
      results
  in
  let detected = List.filter (fun r -> r.static_d.hit) static_tier in
  let nt = List.length static_tier and nd = List.length detected in
  let blind = List.length (List.filter is_known_blind_spot results) in
  Obs.Metrics.set m_blind_spot blind;
  {
    seed;
    bases = List.length bases;
    total_mutants = List.length results;
    rows;
    static_tier_mutants = nt;
    static_tier_detected = nd;
    static_tier_recall =
      (if nt = 0 then 1.0 else float_of_int nd /. float_of_int nt);
    known_blind_spot = blind;
    results;
  }

(* ------------------------------------------------------------------ *)

let expected_detector_missed (r : mutant_result) =
  match r.mutant.Mutation.truth.Mutation.tier with
  | Mutation.Static_tier -> not r.static_d.hit
  | Mutation.Dynamic_tier ->
    if r.dynamic_d.applicable then not r.dynamic_d.hit
    else not r.static_d.hit
  (* recovery-tier mutants are scored by [run_recovery], never by the
     static/dynamic matrix, so they cannot be blind spots here *)
  | Mutation.Recovery_tier -> false

let false_negatives s = List.filter expected_detector_missed s.results

let save_false_negatives ~dir s =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.map
    (fun r ->
      let m = r.mutant in
      let t = m.Mutation.truth in
      let fname =
        Fmt.str "%s.nvmir"
          (String.map
             (function '/' -> '_' | c -> c)
             m.Mutation.id)
      in
      let path = Filename.concat dir fname in
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "# false negative: %s@." m.Mutation.id;
      Format.fprintf ppf "# operator: %s  tier: %s  model: %a@."
        (Mutation.operator_name t.Mutation.operator)
        (Mutation.tier_name t.Mutation.tier)
        Analysis.Model.pp m.Mutation.model;
      Format.fprintf ppf "# expected: %s @@ %s:%d@."
        (String.concat "|"
           (List.map W.rule_name t.Mutation.primary.Mutation.rules))
        t.Mutation.primary.Mutation.file t.Mutation.primary.Mutation.line;
      Format.fprintf ppf "%a@." Nvmir.Prog.pp m.Mutation.prog;
      close_out oc;
      path)
    (false_negatives s)

(* Re-derive the blind-spot count from a persisted FN corpus by parsing
   the ground-truth header comments — the cross-check that the summary
   counter and the saved corpus agree. Only the leading comment block is
   read. *)
let known_blind_spot_of_corpus ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        if not (Filename.check_suffix f ".nvmir") then acc
        else begin
          let ic = open_in (Filename.concat dir f) in
          let matched = ref false in
          let prefix = "# operator: " in
          let plen = String.length prefix in
          (try
             let rec scan () =
               let line = input_line ic in
               if String.length line > 0 && line.[0] = '#' then begin
                 if
                   String.length line >= plen
                   && String.equal (String.sub line 0 plen) prefix
                 then begin
                   let rest =
                     String.sub line plen (String.length line - plen)
                   in
                   let toks =
                     List.filter
                       (fun s -> s <> "")
                       (String.split_on_char ' ' rest)
                   in
                   match toks with
                   | op :: "tier:" :: tier :: _ -> (
                     match Mutation.operator_of_string op with
                     | Some (Mutation.Delete_fence | Mutation.Reorder_fence)
                       when String.equal tier "static" ->
                       matched := true
                     | _ -> ())
                   | _ -> ()
                 end;
                 scan ()
               end
             in
             scan ()
           with End_of_file -> ());
          close_in ic;
          if !matched then acc + 1 else acc
        end)
      0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)

let json_of_opt_float = function None -> J.Null | Some f -> J.Float f

let json_of_cell c =
  J.Obj
    [
      ("applicable", J.Int c.applicable);
      ("detected", J.Int c.detected);
      ("false_positives", J.Int c.fp);
      ("recall", json_of_opt_float (cell_recall c));
      ("precision", json_of_opt_float (cell_precision c));
    ]

let to_json s =
  J.Obj
    [
      ("seed", J.Int s.seed);
      ("bases", J.Int s.bases);
      ("total_mutants", J.Int s.total_mutants);
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("operator", J.String (Mutation.operator_name r.operator));
                   ( "tier",
                     J.String
                       (Mutation.tier_name (Mutation.operator_tier r.operator))
                   );
                   ("mutants", J.Int r.mutants);
                   ("static", json_of_cell r.static_c);
                   ("dynamic", json_of_cell r.dynamic_c);
                   ("crash", json_of_cell r.crash_c);
                 ])
             s.rows) );
      ("static_tier_mutants", J.Int s.static_tier_mutants);
      ("static_tier_detected", J.Int s.static_tier_detected);
      ("static_tier_recall", J.Float s.static_tier_recall);
      ("static_tier_target_met", J.Bool (s.static_tier_recall >= 0.9));
      ("known_blind_spot", J.Int s.known_blind_spot);
      ( "false_negatives",
        J.List
          (List.map
             (fun r ->
               let t = r.mutant.Mutation.truth in
               J.Obj
                 [
                   ("id", J.String r.mutant.Mutation.id);
                   ( "operator",
                     J.String (Mutation.operator_name t.Mutation.operator) );
                   ( "expected_rules",
                     J.List
                       (List.map
                          (fun ru -> J.String (W.rule_name ru))
                          t.Mutation.primary.Mutation.rules) );
                   ("file", J.String t.Mutation.primary.Mutation.file);
                   ("line", J.Int t.Mutation.primary.Mutation.line);
                 ])
             (false_negatives s)) );
    ]

let cell_to_string c =
  match cell_recall c with
  | None -> "-"
  | Some r -> Fmt.str "%d/%d r=%.2f fp=%d" c.detected c.applicable r c.fp

let pp_summary ppf s =
  Fmt.pf ppf
    "Injection recall/precision matrix (seed %d, %d base program(s), %d \
     mutant(s))@."
    s.seed s.bases s.total_mutants;
  Fmt.pf ppf "%-16s %-6s %-5s %-22s %-22s %-22s@." "operator" "tier" "n"
    "static" "dynamic" "crash";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s %-6s %-5d %-22s %-22s %-22s@."
        (Mutation.operator_name r.operator)
        (Mutation.tier_name (Mutation.operator_tier r.operator))
        r.mutants (cell_to_string r.static_c) (cell_to_string r.dynamic_c)
        (cell_to_string r.crash_c))
    s.rows;
  Fmt.pf ppf "static-tier recall: %d/%d = %.3f (target 0.90 %s)@."
    s.static_tier_detected s.static_tier_mutants s.static_tier_recall
    (if s.static_tier_recall >= 0.9 then "met" else "MISSED");
  Fmt.pf ppf "known blind spot (pointer-arith fence aliases): %d mutant(s)@."
    s.known_blind_spot;
  let fns = false_negatives s in
  if fns <> [] then
    Fmt.pf ppf "false negatives: %s@."
      (String.concat ", " (List.map (fun r -> r.mutant.Mutation.id) fns))

(* ------------------------------------------------------------------ *)
(* Recovery tier: the corruption operators scored by the recovery
   executor. Kept out of [run]'s matrix — the paper-corpus recall
   numbers are pinned, and no trace rule can see a recovery-path
   defect anyway — and fed by the dedicated {!Corpus.Recovery}
   bases. *)

let recovery_operators =
  [
    Mutation.Strip_crc_guard;
    Mutation.Silence_recovery;
    Mutation.Drift_recovery_store;
  ]

let recovery_bases ?(config = Analysis.Config.default) () =
  List.map
    (fun (p : Corpus.Types.program) ->
      make_base ~config ~bname:p.Corpus.Types.name
        ~model:(Corpus.Types.model p) ~roots:p.Corpus.Types.roots
        ~entry:(Some p.Corpus.Types.entry)
        ~entry_args:p.Corpus.Types.entry_args
        (Corpus.Types.parse p))
    Corpus.Recovery.programs

let recovery_report ~seed ~bound (b : base) prog =
  match (b.entry, Nvmir.Prog.find_func prog "recover") with
  | Some entry, Some _ ->
    Some
      (Recover.verify ~entry ~args:b.entry_args ~bound ~seed ~model:b.model
         prog)
  | _ -> None

type recovery_result = {
  r_mutant : Mutation.mutant;
  r_detection : detection;
}

type recovery_row = {
  r_operator : Mutation.operator;
  r_mutants : int;
  r_cell : cell;
}

type recovery_summary = {
  r_seed : int;
  r_bases : int;
  r_total_mutants : int;
  r_applicable : int;
  r_detected : int;
  r_recall : float;
  r_rows : recovery_row list;
  r_base_reports : (string * Recover.report) list;
  r_results : recovery_result list;
}

let run_recovery ?domains ?(operators = recovery_operators) ?(seed = 1)
    ?(bound = 96) bases =
  (* one baseline verification per base: its residual recovery warnings
     are excluded from every mutant's delta, exactly as the static tier
     treats refused-autofix residue *)
  let prepared =
    List.map (fun b -> (b, recovery_report ~seed ~bound b b.prog)) bases
  in
  let baseline_keys =
    List.map
      (fun (b, rep) ->
        ( b.bname,
          match rep with
          | None -> []
          | Some rep -> List.map W.dedup_key rep.Recover.warnings ))
      prepared
  in
  let mutants =
    List.concat_map
      (fun (b, _) ->
        List.map
          (fun m -> (b, m))
          (Mutation.mutate ~operators ~config:b.config ~base:b.bname
             ~model:b.model ~roots:b.roots b.prog))
      prepared
  in
  let results =
    Pool.map ?domains ~chunk:1 (Pool.default ())
      (fun (b, (m : Mutation.mutant)) ->
        let baseline =
          Option.value ~default:[] (List.assoc_opt b.bname baseline_keys)
        in
        let d =
          match recovery_report ~seed ~bound b m.Mutation.prog with
          | None -> not_applicable
          | Some rep ->
            let delta =
              List.filter
                (fun w -> not (List.mem (W.dedup_key w) baseline))
                rep.Recover.warnings
            in
            classify ~matches:Mutation.expect_matches m.Mutation.truth delta
        in
        { r_mutant = m; r_detection = d })
      mutants
  in
  let rows =
    List.filter_map
      (fun op ->
        if not (List.memq op operators) then None
        else
          let rs =
            List.filter
              (fun r ->
                r.r_mutant.Mutation.truth.Mutation.operator = op)
              results
          in
          Some
            {
              r_operator = op;
              r_mutants = List.length rs;
              r_cell =
                List.fold_left
                  (fun c r -> add_cell c r.r_detection)
                  empty_cell rs;
            })
      recovery_operators
  in
  let applicable =
    List.length (List.filter (fun r -> r.r_detection.applicable) results)
  in
  let detected =
    List.length (List.filter (fun r -> r.r_detection.hit) results)
  in
  {
    r_seed = seed;
    r_bases = List.length bases;
    r_total_mutants = List.length results;
    r_applicable = applicable;
    r_detected = detected;
    r_recall =
      (if applicable = 0 then 1.0
       else float_of_int detected /. float_of_int applicable);
    r_rows = rows;
    r_base_reports =
      List.filter_map
        (fun (b, rep) -> Option.map (fun r -> (b.bname, r)) rep)
        prepared;
    r_results = results;
  }

let recovery_to_json s =
  J.Obj
    [
      ("seed", J.Int s.r_seed);
      ("bases", J.Int s.r_bases);
      ("total_mutants", J.Int s.r_total_mutants);
      ( "bases_verified",
        J.List
          (List.map
             (fun (name, (rep : Recover.report)) ->
               J.Obj
                 [
                   ("base", J.String name);
                   ("clean", J.Bool (Recover.consistent rep));
                   ("warnings", J.Int (List.length rep.Recover.warnings));
                   ("report", J.of_recovery rep);
                 ])
             s.r_base_reports) );
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("operator", J.String (Mutation.operator_name r.r_operator));
                   ( "tier",
                     J.String
                       (Mutation.tier_name
                          (Mutation.operator_tier r.r_operator)) );
                   ("mutants", J.Int r.r_mutants);
                   ("recovery", json_of_cell r.r_cell);
                 ])
             s.r_rows) );
      ("applicable", J.Int s.r_applicable);
      ("detected", J.Int s.r_detected);
      ("recall", J.Float s.r_recall);
      ("all_detected", J.Bool (s.r_detected = s.r_applicable));
    ]

let pp_recovery_summary ppf s =
  Fmt.pf ppf
    "Recovery-tier recall (seed %d, %d base program(s), %d mutant(s))@."
    s.r_seed s.r_bases s.r_total_mutants;
  List.iter
    (fun (name, (rep : Recover.report)) ->
      Fmt.pf ppf "base %-22s %s@." name
        (if Recover.consistent rep then "verified clean"
         else
           Fmt.str "%d recovery warning(s)"
             (List.length rep.Recover.warnings)))
    s.r_base_reports;
  Fmt.pf ppf "%-22s %-9s %-5s %s@." "operator" "tier" "n" "recovery";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-22s %-9s %-5d %s@."
        (Mutation.operator_name r.r_operator)
        (Mutation.tier_name (Mutation.operator_tier r.r_operator))
        r.r_mutants (cell_to_string r.r_cell))
    s.r_rows;
  Fmt.pf ppf "recovery-tier recall: %d/%d = %.3f@." s.r_detected
    s.r_applicable s.r_recall
