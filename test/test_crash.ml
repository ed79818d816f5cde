(* Tests for crash simulation over reachable crash images: buggy corpus
   patterns really do have inconsistent crash windows, and the corrected
   variants do not. Invariants read one materialized durable image
   through the reader the image oracle passes in. *)

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

(* invariant: if nbuckets is durable, bucket0 must be initialized *)
let invariant read =
  let v slot = Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot }) in
  if v 0 <> 0 && v 1 = 0 then Error "nbuckets durable before buckets"
  else Ok ()

let crash_test ?entry invariant prog =
  Deepmc.Crash_sweep.explore_program ?entry
    ~oracle:(Runtime.Crash_space.Invariant invariant) prog

(* The prefix image of [task]: what survives when nothing in flight
   reached NVM, read slot by slot. *)
let prefix_image ~task ~entry prog =
  let _, images, _ =
    Runtime.Crash_space.(task_images ~task (record ~entry prog))
  in
  match images with
  | ci :: _ -> fun obj_id slot ->
    Runtime.Value.to_int
      (Runtime.Crash_space.reader ci.Runtime.Crash_space.ci_image
         { Runtime.Pmem.obj_id; slot })
  | [] -> Alcotest.fail "a crash task has at least one image"

let test_buggy_hashmap_has_window () =
  let prog = Nvmir.Parser.parse (hashmap_src ~transactional:false) in
  let report = crash_test invariant prog in
  check Alcotest.bool "violations found" true
    (report.Runtime.Crash_space.inconsistent > 0);
  match Runtime.Crash_space.first_witness report with
  | Some w ->
    check Alcotest.bool "detail given" true (w.Runtime.Crash_space.w_detail <> "")
  | None -> Alcotest.fail "expected a violating crash point"

let test_transactional_hashmap_safe () =
  let prog = Nvmir.Parser.parse (hashmap_src ~transactional:true) in
  let report = crash_test invariant prog in
  check Alcotest.bool "no violations" true (Runtime.Crash_space.consistent report);
  check Alcotest.bool "crash points exercised" true
    (report.Runtime.Crash_space.crash_points > 0)

(* ordering matters: writing the dependent field first closes the
   window even without a transaction *)
let test_safe_ordering () =
  let prog =
    Nvmir.Parser.parse
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
  in
  let report = crash_test invariant prog in
  check Alcotest.bool "dependency-ordered init is crash safe" true
    (Runtime.Crash_space.consistent report)

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

(* the crash oracle on corpus programs: buggy hashmap (Fig. 1 example)
   must expose the window; the fixed variant must not *)
let test_corpus_hashmap_crash_oracle () =
  match Corpus.Registry.find "hashmap" with
  | None -> Alcotest.fail "hashmap corpus program missing"
  | Some p ->
    let fixed =
      match Corpus.Types.parse_fixed p with
      | Some f -> f
      | None -> Alcotest.fail "hashmap has no fixed variant"
    in
    (* the fixed hashmap creates the map transactionally: every crash
       point must leave nbuckets and bucket[0] consistent *)
    let invariant read =
      let v slot =
        Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot })
      in
      (* slot 0 = nbuckets, slot 1 = buckets[0] *)
      if v 0 <> 0 && v 1 = 0 then Error "half-initialized map" else Ok ()
    in
    let report = crash_test ~entry:"hashmap_driver_all" invariant fixed in
    check Alcotest.bool "fixed hashmap crash-consistent" true
      (Runtime.Crash_space.consistent report)

let test_crash_report_counts () =
  let prog = Nvmir.Parser.parse (hashmap_src ~transactional:false) in
  let report = crash_test invariant prog in
  check Alcotest.int "a result per crash point, plus exit"
    (report.Runtime.Crash_space.crash_points + 1)
    (List.length report.Runtime.Crash_space.points)

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
  ]
