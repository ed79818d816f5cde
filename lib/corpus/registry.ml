(* Registry over the whole corpus plus aggregate queries used by the
   benches that regenerate Tables 1, 2, 3 and 8. *)

open Types

let all : program list =
  Pmdk.programs @ Nvm_direct.programs @ Pmfs.programs @ Mnemosyne.programs

let find name = List.find_opt (fun p -> String.equal p.name name) all

let by_framework fw = List.filter (fun p -> p.framework = fw) all

(* Analyze one corpus program with the full pipeline and score it. *)
let analyze ?config (p : program) =
  let prog = parse p in
  let driver = Deepmc.Driver.make ?config (model p) in
  let report =
    Deepmc.Driver.analyze driver ~roots:p.roots ~entry:p.entry
      ~args:p.entry_args prog
  in
  let score = Deepmc.Report.score (expectations p) report.Deepmc.Driver.warnings in
  (report, score)

type framework_totals = {
  framework : framework;
  validated : int;
  warnings : int;
  per_rule : (Analysis.Warning.rule_id * (int * int)) list;
      (* rule -> validated/warnings *)
}

(* Aggregate checker results per framework: the cells of Table 1. *)
let table1 ?config () : framework_totals list =
  List.map
    (fun fw ->
      let scores =
        List.map (fun p -> snd (analyze ?config p)) (by_framework fw)
      in
      let validated =
        List.fold_left (fun a s -> a + Deepmc.Report.validated_count s) 0 scores
      in
      let warnings =
        List.fold_left (fun a s -> a + Deepmc.Report.warning_count s) 0 scores
      in
      let per_rule =
        List.map
          (fun rule ->
            let v =
              List.fold_left
                (fun a s ->
                  a
                  + List.length
                      (List.filter
                         (fun ((e : Deepmc.Report.expectation), _) ->
                           e.Deepmc.Report.validated
                           && e.Deepmc.Report.rule = rule)
                         s.Deepmc.Report.matched))
                0 scores
            in
            let w =
              List.fold_left
                (fun a s ->
                  a
                  + List.length
                      (List.filter
                         (fun (x : Analysis.Warning.t) ->
                           x.Analysis.Warning.rule = rule)
                         s.Deepmc.Report.warnings))
                0 scores
            in
            (rule, (v, w)))
          Analysis.Warning.all_rules
      in
      { framework = fw; validated; warnings; per_rule })
    all_frameworks

(* Ground-truth statistics (Tables 2, 3 and 8 are printed from these). *)
let studied_bugs () =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun ((e : Deepmc.Report.expectation), d) ->
          if e.Deepmc.Report.validated && not e.Deepmc.Report.is_new then
            Some (p, e, d)
          else None)
        p.expectations)
    all

let new_bugs () =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun ((e : Deepmc.Report.expectation), d) ->
          if e.Deepmc.Report.validated && e.Deepmc.Report.is_new then
            Some (p, e, d)
          else None)
        p.expectations)
    all

let benign_patterns () =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun ((e : Deepmc.Report.expectation), d) ->
          if not e.Deepmc.Report.validated then Some (p, e, d) else None)
        p.expectations)
    all

let is_violation (e : Deepmc.Report.expectation) =
  Analysis.Warning.category_of_rule e.Deepmc.Report.rule
  = Analysis.Warning.Model_violation
