(* Tests for crash simulation over reachable crash images: buggy corpus
   patterns really do have inconsistent crash windows, and the corrected
   variants do not. A property is an NVMIR [check] function appended to
   the program, which the recovery tier runs on every durable image
   with corruption off; a nonzero return flags the image. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let hashmap_src ~transactional =
  if transactional then
    {|
struct hashmap { nbuckets: int, bucket0: int }
func main() {
entry:
  h = alloc pmem hashmap
  tx_begin
  tx_add exact h->nbuckets
  tx_add exact h->bucket0
  store h->nbuckets, 4
  store h->bucket0, 1
  tx_end
  ret
}
|}
  else
    {|
struct hashmap { nbuckets: int, bucket0: int }
func main() {
entry:
  h = alloc pmem hashmap
  store h->nbuckets, 4
  persist exact h->nbuckets
  store h->bucket0, 1
  persist exact h->bucket0
  ret
}
|}

let crash_test src =
  Test_crash_space.check_images (Test_crash_space.with_check src)

(* The prefix image of [task]: what survives when nothing in flight
   reached NVM, read slot by slot. *)
let prefix_image ~task ~entry prog =
  let snapshot =
    Test_crash_space.prefix_snapshot ~task (Test_crash_space.record ~entry prog)
  in
  fun obj_id slot ->
    Runtime.Value.to_int
      (Test_crash_space.durable_value snapshot { Runtime.Pmem.obj_id; slot })

let test_buggy_hashmap_has_window () =
  let report = crash_test (hashmap_src ~transactional:false) in
  check Alcotest.bool "violations found" true (report.Recover.flagged > 0)

let test_transactional_hashmap_safe () =
  let report = crash_test (hashmap_src ~transactional:true) in
  check Alcotest.int "no violations" 0 report.Recover.flagged;
  check Alcotest.bool "crash points exercised" true
    (report.Recover.crash_points > 0)

let safe_ordering_src =
  {|
struct hashmap { nbuckets: int, bucket0: int }
func main() {
entry:
  h = alloc pmem hashmap
  store h->bucket0, 1
  persist exact h->bucket0
  store h->nbuckets, 4
  persist exact h->nbuckets
  ret
}
|}

(* ordering matters: writing the dependent field first closes the
   window even without a transaction *)
let test_safe_ordering () =
  let report = crash_test safe_ordering_src in
  check Alcotest.int "dependency-ordered init is crash safe" 0
    report.Recover.flagged

(* the unflushed-write bug of Figure 9: the final value is never
   durable, so the invariant "state is never left mid-transition"
   fails at the end of execution *)
let test_unflushed_write_loses_data () =
  let prog =
    Nvmir.Parser.parse
      {|
struct lk { state: int, level: int }
func main() {
entry:
  p = alloc pmem lk
  store p->state, 1
  persist exact p->state
  store p->level, 2
  ret
}
|}
  in
  (* run to completion: the level update never becomes durable *)
  let durable = prefix_image ~task:Runtime.Crash_space.Exit ~entry:"main" prog in
  check Alcotest.int "level lost on crash" 0 (durable 0 1);
  check Alcotest.int "state durable" 1 (durable 0 0)

(* The corpus hashmap's fixed variant with its check appended
   (slot 0 = nbuckets, slot 1 = buckets[0]). *)
let corpus_fixed_hashmap () =
  Test_durability.fixed_with "hashmap"
    (Test_crash_space.hashmap_check ~bucket:"buckets[0]")

(* the crash images of corpus programs: the fixed hashmap creates the
   map transactionally, so every crash point must leave nbuckets and
   bucket[0] consistent *)
let test_corpus_hashmap_crash_oracle () =
  let report =
    Test_crash_space.check_images ~entry:"hashmap_driver_all"
      (corpus_fixed_hashmap ())
  in
  check Alcotest.int "fixed hashmap crash-consistent" 0 report.Recover.flagged

let test_crash_report_counts () =
  let prog = Nvmir.Parser.parse (hashmap_src ~transactional:false) in
  let report = Test_crash_space.explore prog in
  check Alcotest.int "a result per crash point, plus exit"
    (report.Runtime.Crash_space.crash_points + 1)
    (List.length report.Runtime.Crash_space.points)

(* Each property above, and in the crash-space and durability suites,
   was an OCaml closure over a materialized image before it became an
   NVMIR check. Per program (and the corpus hashmap's buggy variant
   under its fixed variant's property): the distinct images the closure
   judged and the witnesses it reported, as (task, persisted lines), in
   sweep order. The check must run on exactly those images and flag
   exactly those. *)
let test_checks_flag_closure_witnesses () =
  let open Runtime.Crash_space in
  let window = [ (Point 1, [ (0, 0) ]); (Point 2, [ (0, 0) ]); (Point 3, []);
                 (Point 4, []); (Point 5, []) ] in
  let fixed_hashmap = Test_crash_space.(with_check fixed_hashmap_src) in
  let corpus_buggy_hashmap =
    match Corpus.Registry.find "hashmap" with
    | Some p ->
      p.Corpus.Types.source ^ Test_crash_space.hashmap_check ~bucket:"buckets[0]"
    | None -> Alcotest.fail "hashmap corpus program missing"
  in
  let cases =
    [
      ("buggy hashmap", "main", None,
       Test_crash_space.with_check (hashmap_src ~transactional:false), 11,
       window);
      ("transactional hashmap", "main", None,
       Test_crash_space.with_check (hashmap_src ~transactional:true), 6, []);
      ("dependency-ordered", "main", None,
       Test_crash_space.with_check safe_ordering_src, 11, []);
      ("crash-space buggy hashmap", "main", None,
       Test_crash_space.(with_check buggy_hashmap_src), 11, window);
      ("corpus fixed hashmap", "hashmap_driver_all", None,
       corpus_fixed_hashmap (), 6, []);
      ("corpus buggy hashmap", "hashmap_driver_all", None,
       corpus_buggy_hashmap, 21,
       [ (Point 4, [ (0, 0) ]); (Point 5, [ (0, 0) ]); (Point 6, []);
         (Point 7, []); (Point 7, [ (1, 0) ]); (Point 8, []);
         (Point 8, [ (1, 0) ]); (Point 9, []); (Point 10, []);
         (Point 10, [ (1, 0) ]); (Point 11, []); (Point 11, [ (1, 0) ]);
         (Point 12, []); (Exit, []) ]);
      ("fixed pmemlog", "pmemlog_driver", None,
       Test_durability.fixed_pmemlog (), 10, []);
      ("fixed btree", "btree_driver_all", None, Test_durability.fixed_btree (),
       26, []);
    ]
    @ List.map
        (fun bound ->
          (Fmt.str "fixed hashmap at bound %d" bound, "main", Some bound,
           fixed_hashmap, 6, []))
        [ 1; 2; 8; 64; 512 ]
  in
  List.iter
    (fun (name, entry, bound, src, images, witnesses) ->
      let r = Test_crash_space.check_images ?bound ~entry src in
      check Alcotest.int (name ^ ": images checked") images
        r.Recover.images_checked;
      check Alcotest.bool (name ^ ": flagged = the closure's witnesses") true
        (Test_crash_space.flagged r = witnesses);
      check Alcotest.int (name ^ ": no other verdict") images
        (r.Recover.flagged + r.Recover.restored))
    cases

let suite =
  [
    tc "buggy hashmap has a crash window" `Quick test_buggy_hashmap_has_window;
    tc "transactional hashmap is safe" `Quick test_transactional_hashmap_safe;
    tc "dependency-ordered init is safe" `Quick test_safe_ordering;
    tc "unflushed write loses data (Fig. 9)" `Quick
      test_unflushed_write_loses_data;
    tc "corpus fixed hashmap is crash-consistent" `Quick
      test_corpus_hashmap_crash_oracle;
    tc "crash report accounting" `Quick test_crash_report_counts;
    tc "checks flag exactly the closures' witnesses" `Quick
      test_checks_flag_closure_witnesses;
  ]
