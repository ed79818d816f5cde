(* Crash-consistency demo: the Figure 1 hashmap bug is not just a rule
   violation on paper — injecting a crash at every persistent-memory
   event shows a real window where the durable state is inconsistent.
   The transactional fix closes the window.

     dune exec examples/crash_consistency.exe *)

(* Consistency invariant for the hashmap: if nbuckets is durable and
   non-zero, the bucket array initialization must also be durable
   (bucket 0 must hold the initialized marker, not the default 0...
   we initialize buckets to 1 to make "initialized" observable). *)

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

(* The hashmap object is the first persistent allocation: object id 0.
   Slot 0 is nbuckets, slot 1 is buckets[0]. The explorer hands the
   invariant a reader over one materialized durable image. *)
let invariant read =
  let v slot = Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot }) in
  if v 0 <> 0 && v 1 = 0 then
    Error
      (Fmt.str "nbuckets=%d is durable but the bucket array is not initialized"
         (v 0))
  else Ok ()

let run label src =
  let prog = Nvmir.Parser.parse src in
  let report =
    Deepmc.Crash_sweep.explore_program ~oracle:(Invariant invariant) prog
  in
  Fmt.pr "@[<v 2>%-18s@ %a@]@." label Runtime.Crash_space.pp_report report

let () =
  Fmt.pr
    "Injecting a crash after every persistent-memory event and checking@.\
     every durable image a write-back order can leave (the first one per@.\
     point is the prefix image: only fenced data and committed@.\
     transactions survive):@.@.";
  run "buggy hashmap:" buggy;
  run "fixed hashmap:" fixed;
  Fmt.pr
    "@.The buggy version has crash images where the map says it has@.\
     buckets but the bucket array never became durable; each is reported@.\
     with the in-flight lines that reached NVM. The transactional version@.\
     rolls back to the empty map in every image.@."
