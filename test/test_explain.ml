(* The provenance engine (lib/explain): independent tier observations
   of one bug correlate to one evidence bundle. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Directed: two tiers, one bundle *)

(* The strand WAW race: the static checker and the dynamic shadow state
   each observe the same (rule, file, line), so explain must produce
   exactly one bundle carrying a witness from both tiers. *)
let waw_src =
  {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  strand_begin 1
  store p->f, 1 @ waw.c:5
  flush exact p->f @ waw.c:6
  strand_end 1
  strand_begin 2
  store p->f, 2 @ waw.c:9
  flush exact p->f @ waw.c:10
  strand_end 2
  fence @ waw.c:12
  ret
}
|}

let with_witnesses f =
  Analysis.Witness.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Witness.set_enabled false) f

let test_cross_tier_correlation () =
  with_witnesses @@ fun () ->
  let prog = Nvmir.Parser.parse waw_src in
  let driver = Deepmc.Driver.make Analysis.Model.Strand in
  let report = Deepmc.Driver.analyze driver ~entry:"main" prog in
  let bundles = Explain.build report in
  check Alcotest.int "one bundle" 1 (List.length bundles);
  let b = List.hd bundles in
  check
    Alcotest.(list string)
    "static and dynamic tiers" [ "static"; "dynamic" ] (Explain.tiers b);
  check Alcotest.int "two witnesses" 2 (List.length b.Explain.b_evidence);
  (* the bundle key is the tier-independent bug identity *)
  List.iter
    (fun (e : Explain.evidence) ->
      match e.Explain.ev_warning with
      | Some w ->
        check Alcotest.string "bundle key matches warning identity"
          b.Explain.b_fingerprint
          (Analysis.Warning.bundle_fingerprint w)
      | None -> Alcotest.fail "warning-backed evidence expected")
    b.Explain.b_evidence;
  (* ...while the per-tier witnesses are distinct observations *)
  match b.Explain.b_evidence with
  | [ a; d ] ->
    check Alcotest.bool "distinct witness fingerprints" true
      (a.Explain.ev_fingerprint <> d.Explain.ev_fingerprint)
  | _ -> Alcotest.fail "expected exactly two evidence entries"

let test_disabled_capture_attaches_nothing () =
  Analysis.Witness.set_enabled false;
  let prog = Nvmir.Parser.parse waw_src in
  let driver = Deepmc.Driver.make Analysis.Model.Strand in
  let report = Deepmc.Driver.analyze driver ~entry:"main" prog in
  check Alcotest.bool "warnings still fire" true
    (report.Deepmc.Driver.warnings <> []);
  List.iter
    (fun (w : Analysis.Warning.t) ->
      check Alcotest.bool "no witness when disabled" true
        (w.Analysis.Warning.witness = None))
    report.Deepmc.Driver.warnings;
  check Alcotest.int "no bundles without witnesses" 0
    (List.length (Explain.build report))

(* An entry that fails at runtime skips the dynamic, crash and recovery
   tiers; explain says so instead of reporting a clean program. Without
   an entry, the dynamic tier was never asked for and is not listed. *)
let test_skipped_tiers () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { v: int }
func main() {
entry:
  q = null
  store q->v, 1  @ null.c:5
  ret
}
|}
  in
  let driver = Deepmc.Driver.make Analysis.Model.Strict in
  let report =
    Deepmc.Driver.analyze driver ~entry:"main" ~explore_crash_images:true
      ~verify_recovery:true ~recovery_entry:"main" prog
  in
  let skipped = Explain.skipped ~entry:(Some "main") report in
  check
    Alcotest.(list string)
    "skipped tiers"
    [ "dynamic"; "crash space"; "recovery" ]
    (List.map fst skipped);
  let text =
    Explain.render ~file:"null" ~model:Analysis.Model.Strict ~prog ~skipped
      (Explain.build report)
  in
  check Alcotest.bool "rendered with the reason" true
    (List.mem
       ("crash space: skipped (" ^ List.assoc "crash space" skipped ^ ")")
       (String.split_on_char '\n' text));
  check
    Alcotest.(list string)
    "no entry, no dynamic tier asked for" []
    (List.map fst
       (Explain.skipped ~entry:None (Deepmc.Driver.analyze driver prog)))

let suite =
  let tc = Alcotest.test_case in
  [
    tc "cross-tier correlation: static+dynamic -> one bundle" `Quick
      test_cross_tier_correlation;
    tc "disabled capture attaches no witnesses" `Quick
      test_disabled_capture_attaches_nothing;
    tc "failed run: skipped tiers are named" `Quick test_skipped_tiers;
  ]
