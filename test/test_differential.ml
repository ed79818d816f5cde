(* Differential testing of the two pipelines: every execution's
   persistent-event stream must be explained by some statically
   collected trace (§4.1: the offline and online analyses see the same
   program through the same event vocabulary). *)

let tc = Alcotest.test_case
let check = Alcotest.check

let record_execution prog ~entry ~args =
  let pmem = Runtime.Pmem.create () in
  let rec_ = Runtime.Recorder.create () in
  Runtime.Recorder.attach rec_ pmem;
  let interp = Runtime.Interp.create ~pmem prog in
  ignore (Runtime.Interp.run ~entry ~args interp);
  rec_

(* differential tests widen the exploration caps so the executed path is
   always among the collected traces (with default caps, bounded
   exploration may drop low-persistency paths — the paper's
   prioritization trade-off) *)
let wide_config =
  { Analysis.Config.default with
    Analysis.Config.max_paths = 4096; expansion_fanout = 4096 }

let static_traces_of prog ~root =
  let dsg = Dsa.Dsg.build prog in
  match
    List.assoc_opt root
      (Analysis.Trace.collect ~config:wide_config dsg prog ~roots:[ root ])
  with
  | Some ts -> ts
  | None -> []

let test_straightline_agreement () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1        @ t.c:1
  persist exact p->f   @ t.c:2
  tx_begin             @ t.c:3
  tx_add exact p->g    @ t.c:4
  store p->g, 2        @ t.c:5
  tx_end               @ t.c:6
  ret
}
|}
  in
  let rec_ = record_execution prog ~entry:"main" ~args:[] in
  check Alcotest.bool "execution explained by a static trace" true
    (Runtime.Recorder.explained_by rec_ (static_traces_of prog ~root:"main"))

let test_branch_agreement () =
  (* both runtime outcomes of the branch must be explained *)
  let src =
    {|
struct s { f: int, g: int }
func main(n: int) {
entry:
  p = alloc pmem s
  c = n > 0
  br c, yes, no
yes:
  store p->f, 1        @ t.c:10
  persist exact p->f   @ t.c:11
  br fin
no:
  store p->g, 2        @ t.c:20
  persist exact p->g   @ t.c:21
  br fin
fin:
  ret
}
|}
  in
  let prog = Nvmir.Parser.parse src in
  let statics = static_traces_of prog ~root:"main" in
  List.iter
    (fun arg ->
      let rec_ = record_execution prog ~entry:"main" ~args:[ arg ] in
      check Alcotest.bool
        (Fmt.str "branch arg=%d explained" arg)
        true
        (Runtime.Recorder.explained_by rec_ statics))
    [ 0; 1 ]

let test_recorder_event_stream () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  flush exact p->f
  fence
  epoch_end
  ret
}
|}
  in
  let rec_ = record_execution prog ~entry:"main" ~args:[] in
  let kinds =
    List.map
      (function
        | Runtime.Recorder.R_write _ -> "W"
        | Runtime.Recorder.R_flush _ -> "F"
        | Runtime.Recorder.R_fence -> "B"
        | Runtime.Recorder.R_epoch_begin -> "E{"
        | Runtime.Recorder.R_epoch_end -> "}E"
        | _ -> "?")
      (Runtime.Recorder.events rec_)
  in
  check Alcotest.(list string) "stream shape" [ "E{"; "W"; "F"; "B"; "}E" ] kinds

let test_corpus_executions_explained () =
  (* each corpus scenario driver's execution agrees with its static
     traces; programs whose drivers take arguments pick the executed
     configuration *)
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      let dsg = Dsa.Dsg.build prog in
      let statics =
        Analysis.Trace.collect ~config:wide_config dsg prog
          ~roots:p.Corpus.Types.roots
      in
      List.iter
        (fun root ->
          match Nvmir.Prog.find_func prog root with
          | Some f when f.Nvmir.Func.params = [] ->
            let rec_ = record_execution prog ~entry:root ~args:[] in
            let ts = Option.value ~default:[] (List.assoc_opt root statics) in
            if not (Runtime.Recorder.explained_by rec_ ts) then
              Alcotest.fail
                (Fmt.str "%s/%s: execution not explained by %d static trace(s)"
                   p.Corpus.Types.name root (List.length ts))
          | _ -> ())
        p.Corpus.Types.roots)
    Corpus.Registry.all

let prop_synth_executions_explained =
  QCheck.Test.make ~name:"generated executions match a static trace" ~count:15
    QCheck.(map abs int)
    (fun seed ->
      (* one call per worker and few workers keep the full path
         cross-product under the (widened) caps, so the executed path is
         guaranteed to be collected *)
      let cfg =
        (* ptr_arith admits the computed-alias worker shape, so the
           offset-polynomial paths are exercised differentially too *)
        { Corpus.Synth.default_config with seed; nfuncs = 6;
          calls_per_func = 1; buggy_fraction_pct = 20; ptr_arith = true }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      let dsg = Dsa.Dsg.build prog in
      let statics =
        Analysis.Trace.collect ~config:wide_config dsg prog
          ~roots:(Corpus.Synth.roots cfg)
      in
      List.for_all
        (fun root ->
          let rec_ = record_execution prog ~entry:root ~args:[] in
          let ts = Option.value ~default:[] (List.assoc_opt root statics) in
          Runtime.Recorder.explained_by rec_ ts)
        (Corpus.Synth.roots cfg))

(* Soundness cross-check of the crash-image explorer against the static
   checker: dynamic ground truth must not outrun the static rules. If a
   randomly generated program has an inconsistent reachable crash image,
   the static checker must flag the program with at least one warning —
   otherwise the rules have a blind spot the image space can see.
   QCheck shrinks the integer seed toward a minimal counterexample;
   failures print the seed plus both sides' evidence. *)
let prop_crash_space_implies_static_warning =
  QCheck.Test.make
    ~name:"inconsistent crash image implies a static warning" ~count:10
    QCheck.(map abs int)
    (fun seed ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 5;
          calls_per_func = 1; buggy_fraction_pct = 50; ptr_arith = true }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      let space = Deepmc.Crash_sweep.explore_program ~bound:64 prog in
      if space.Runtime.Crash_space.inconsistent = 0 then true
      else begin
        let r =
          Analysis.Checker.check ~config:wide_config
            ~roots:(Corpus.Synth.roots cfg) ~model:Analysis.Model.Strict prog
        in
        if r.Analysis.Checker.warnings = [] then
          QCheck.Test.fail_reportf
            "seed %d: %d inconsistent crash image(s) (first: %a) but zero \
             static warnings"
            seed space.Runtime.Crash_space.inconsistent
            (Fmt.option Runtime.Crash_space.pp_witness)
            (Runtime.Crash_space.first_witness space)
        else true
      end)

let suite =
  [
    tc "straight-line agreement" `Quick test_straightline_agreement;
    tc "branch agreement (both outcomes)" `Quick test_branch_agreement;
    tc "recorder event stream" `Quick test_recorder_event_stream;
    tc "whole corpus executions explained" `Quick
      test_corpus_executions_explained;
    QCheck_alcotest.to_alcotest prop_synth_executions_explained;
    QCheck_alcotest.to_alcotest prop_crash_space_implies_static_warning;
  ]
