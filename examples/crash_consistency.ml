(* Crash-consistency demo: the Figure 1 hashmap bug is not just a rule
   violation on paper — injecting a crash at every persistent-memory
   event shows a real window where the durable state is inconsistent.
   The transactional fix closes the window.

     dune exec examples/crash_consistency.exe *)

let buggy = {|
struct hashmap { nbuckets: int, buckets: int[4], seed: int }

func hashmap_create(h: ptr hashmap) {
entry:
  store h->nbuckets, 4           @ hash_map.c:120
  persist exact h->nbuckets      @ hash_map.c:121
  store h->buckets[0], 1         @ hash_map.c:116
  persist exact h->buckets[0]    @ hash_map.c:117
  ret
}

func main() {
entry:
  h = alloc pmem hashmap
  call hashmap_create(h)
  ret
}
|}

let fixed = {|
struct hashmap { nbuckets: int, buckets: int[4], seed: int }

func hashmap_create(h: ptr hashmap) {
entry:
  tx_begin
  tx_add exact h->nbuckets
  tx_add exact h->buckets[0]
  store h->nbuckets, 4
  store h->buckets[0], 1
  tx_end
  ret
}

func main() {
entry:
  h = alloc pmem hashmap
  call hashmap_create(h)
  ret
}
|}

(* The consistency check, appended to each variant: if nbuckets is
   durable and non-zero, the bucket array initialization must be
   durable too (bucket 0 holds the initialized marker 1, not the
   default 0). The recovery tier runs it on every crash image, with the
   image's persistent objects as its parameters in allocation order (a
   missing object is null); a true or nonzero return flags the image. *)
let check =
  {|
func check(h: ptr hashmap) -> int {
entry:
  missing = h == null
  br missing, ok, read
read:
  n = load h->nbuckets
  b = load h->buckets[0]
  published = n > 0
  empty = b < 1
  torn = published && empty
  ret torn
ok:
  ret 0
}
|}

let run label src =
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
  Fmt.pr
    "Injecting a crash after every persistent-memory event and checking@.\
     every durable image a write-back order can leave (the first one per@.\
     point is the prefix image: only fenced data and committed@.\
     transactions survive) with the program's own check function:@.@.";
  run "buggy hashmap:" buggy;
  run "fixed hashmap:" fixed;
  Fmt.pr
    "@.The buggy version has crash images where the map says it has@.\
     buckets but the bucket array never became durable; each is reported@.\
     with the in-flight lines that reached NVM. The transactional version@.\
     rolls back to the empty map in every image.@."
