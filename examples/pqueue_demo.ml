(* A persistent queue done right and done wrong: the shipped
   pqueue.nvmir persists each element before publishing it via the tail
   index; the buggy variant publishes first. DeepMC's semantic-mismatch
   rule flags neither (both persist every write) — it is the queue's
   own check, run on every crash image, that separates them, which is
   why the paper pairs static rules with runtime analysis.

     dune exec examples/pqueue_demo.exe *)

let correct_src =
  match
    List.find_opt Sys.file_exists
      [ "examples/programs/pqueue.nvmir"; "../examples/programs/pqueue.nvmir" ]
  with
  | Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  | None -> failwith "run from the repository root: examples/programs/pqueue.nvmir"

(* The buggy variant publishes the slot via the tail BEFORE persisting
   the element: a crash between the persists exposes garbage. *)
let buggy_src =
  {|
struct pqueue { tail: int, head: int, buf: int[16] }

func pqueue_enqueue(q: ptr pqueue, x: int) {
entry:
  t = load q->tail
  t1 = t + 1
  store q->tail, t1
  persist exact q->tail
  store q->buf[t], x
  persist exact q->buf[t]
  ret
}

func main() {
entry:
  q = alloc pmem pqueue
  call pqueue_enqueue(q, 11)
  call pqueue_enqueue(q, 22)
  ret
}
|}

(* The queue's consistency check, appended to each variant: every
   published slot (index < tail) holds a non-zero element in the
   durable image (the demo enqueues 11/22/33, never 0). The recovery
   tier runs it on every crash image with the image's queue as its
   parameter (null when the queue was never allocated); a nonzero
   return flags the image. *)
let check =
  {|
func check(q: ptr pqueue) -> int {
entry:
  missing = q == null
  br missing, ok, read
read:
  t = load q->tail
  i = 0
  br scan
scan:
  done = i >= t
  br done, ok, test
test:
  x = load q->buf[i]
  empty = x < 1
  br empty, flag, next
next:
  i = i + 1
  br scan
flag:
  ret 1
ok:
  ret 0
}
|}

let crash_test label src =
  let report =
    Deepmc.Driver.analyze
      (Deepmc.Driver.make ~run_dynamic:false Analysis.Model.Strict)
      ~roots:[] ~entry:"main" ~verify_recovery:true ~recovery_entry:"check"
      ~corrupt:false
      (Nvmir.Parser.parse (src ^ check))
  in
  let r = Option.get report.recovery in
  Fmt.pr "@[<v 2>%s@ crash points: %d (+ exit); images: %d; flagged: %d@]@."
    label r.crash_points r.images_checked r.flagged;
  List.iter
    (fun (c : Recover.image_check) ->
      if c.verdict = Flagged then
        Fmt.pr "    at %a: persisted {%a}@." Runtime.Crash_space.pp_task c.task
          Fmt.(list ~sep:(any ", ") Runtime.Crash_space.pp_line)
          c.persisted)
    r.images

let () =
  Fmt.pr "Static check of the correct queue:@.";
  let result =
    Analysis.Checker.check ~model:Analysis.Model.Strict
      (Nvmir.Parser.parse correct_src)
  in
  List.iter
    (fun w -> Fmt.pr "  %a@." Analysis.Warning.pp w)
    result.Analysis.Checker.warnings;
  Fmt.pr
    "@.All conservative semantic-mismatch warnings: the queue UPDATE spans@.\
     persist units on purpose (element before tail) — the Section 5.4 false-\
     positive pattern. The crash images prove this instance safe, so we@.\
     record the verdicts in a suppression database:@.@.";
  let db = Deepmc.Suppress.create () in
  List.iter
    (fun w ->
      Deepmc.Suppress.learn db w ~reason:"dependency-ordered publish, crash-verified")
    result.Analysis.Checker.warnings;
  let kept, suppressed = Deepmc.Suppress.filter db result.Analysis.Checker.warnings in
  Fmt.pr "%s@." (Deepmc.Suppress.to_string db);
  Fmt.pr "after suppression: %d kept, %d suppressed@.@." (List.length kept)
    (List.length suppressed);
  Fmt.pr
    "Crash images reachable after every persistent-memory event, judged by@.\
     the queue's check function:@.";
  crash_test "correct queue:" correct_src;
  crash_test "buggy queue:" buggy_src;
  Fmt.pr
    "@.The buggy enqueue publishes the slot before persisting the element;@.\
     its check finds the window the static rules cannot see (both@.\
     variants flush every write — only the ORDER differs).@."
