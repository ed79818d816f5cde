(* Tests for the crash-image explorer: the reachable-image oracle must
   dominate the prefix image (every violation visible in
   [Pmem.durable_snapshot] of a crashed heap is also found over the
   image space, since the empty persisted-subset is always enumerated
   first), fixed variants must stay clean at every bound, and the
   sampling/pruning machinery must behave. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let explore ?bound ?seed ?invariant ?entry ?args prog =
  Deepmc.Crash_sweep.explore_program ?bound ?seed ?entry ?args
    ?oracle:(Option.map (fun f -> Runtime.Crash_space.Invariant f) invariant)
    prog

(* Every task of a program: its crash points, then exit. *)
let tasks ?entry ?args prog =
  Runtime.Crash_space.tasks
    ~crash_points:
      (Runtime.Crash_space.count_points
         (Runtime.Crash_space.record ?entry ?args prog))

let buggy_hashmap_src =
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

let fixed_hashmap_src =
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

(* invariant: if nbuckets is durable, bucket0 must be initialized —
   phrased over a value lookup so the same predicate reads the prefix
   image ([Pmem.durable_snapshot]) and every materialized image. *)
let invariant read =
  let v slot =
    Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot })
  in
  if v 0 <> 0 && v 1 = 0 then Error "nbuckets durable before buckets"
  else Ok ()

(* Prefix-image violations are a subset of crash-space violations: the
   empty persisted-subset IS the prefix image, so every task whose
   crashed heap's durable snapshot breaks the invariant must carry a
   crash-space witness with an empty persisted set. *)
let test_prefix_subset () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let space = explore ~invariant prog in
  let prefix_violations =
    List.filter
      (fun task ->
        let heap, _, _ =
          Runtime.Crash_space.(task_images ~task (record prog))
        in
        Result.is_error
          (invariant
             (Runtime.Crash_space.reader (Runtime.Pmem.durable_snapshot heap))))
      (tasks prog)
  in
  check Alcotest.bool "prefix image flags the bug" true (prefix_violations <> []);
  List.iter
    (fun task ->
      check Alcotest.bool
        (Fmt.str "%a: empty-subset witness present" Runtime.Crash_space.pp_task
           task)
        true
        (List.exists
           (fun (w : Runtime.Crash_space.witness) ->
             w.Runtime.Crash_space.w_task = task
             && w.Runtime.Crash_space.w_persisted = [])
           space.Runtime.Crash_space.witnesses))
    prefix_violations

let test_fixed_clean_at_any_bound () =
  let prog = Nvmir.Parser.parse fixed_hashmap_src in
  List.iter
    (fun bound ->
      let r = explore ~bound ~invariant prog in
      check Alcotest.bool
        (Fmt.str "fixed hashmap clean at bound %d" bound)
        true
        (Runtime.Crash_space.consistent r))
    [ 1; 2; 8; 64; 512 ]

(* Synth buggy/fixed pairs, differentially: whenever the prefix image's
   invariant-free signal fires (writes never made durable by exit), the
   image space must contain inconsistent images; the fixed twin must be
   clean under the sequential oracle at any bound. *)
let test_synth_pairs () =
  List.iter
    (fun seed ->
      let make pct =
        let cfg =
          {
            Corpus.Synth.default_config with
            Corpus.Synth.nfuncs = 6;
            seed;
            buggy_fraction_pct = pct;
          }
        in
        fst (Corpus.Synth.generate cfg)
      in
      let buggy = make 100 and fixed = make 0 in
      let at_exit, _, _ =
        Runtime.Crash_space.(task_images ~task:Exit (record buggy))
      in
      if Runtime.Pmem.volatile_slot_count at_exit > 0 then begin
        let r = explore ~bound:64 buggy in
        check Alcotest.bool
          (Fmt.str "seed %d: buggy synth has inconsistent images" seed)
          true
          (r.Runtime.Crash_space.inconsistent > 0)
      end;
      List.iter
        (fun bound ->
          let r = explore ~bound fixed in
          check Alcotest.int
            (Fmt.str "seed %d: fixed synth clean at bound %d" seed bound)
            0 r.Runtime.Crash_space.inconsistent)
        [ 8; 256 ])
    [ 1; 2; 3 ]

(* The corpus hashmap's fixed variant under the dependency invariant:
   no reachable image may show nbuckets without buckets[0]. *)
let test_corpus_hashmap_fixed () =
  match Corpus.Registry.find "hashmap" with
  | None -> Alcotest.fail "hashmap corpus program missing"
  | Some p ->
    let fixed =
      match Corpus.Types.parse_fixed p with
      | Some f -> f
      | None -> Alcotest.fail "hashmap has no fixed variant"
    in
    let invariant read =
      let v slot =
        Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot })
      in
      if v 0 <> 0 && v 1 = 0 then Error "half-initialized map" else Ok ()
    in
    let r =
      explore ~entry:p.Corpus.Types.entry ~args:p.Corpus.Types.entry_args
        ~invariant fixed
    in
    check Alcotest.bool "fixed corpus hashmap image-space consistent" true
      (Runtime.Crash_space.consistent r);
    check Alcotest.bool "crash points exercised" true
      (r.Runtime.Crash_space.crash_points > 0)

(* Above the bound the explorer samples: the subset count must equal the
   bound exactly, with the sampled flag set. Five persistent objects
   each left dirty give 2^5 = 32 candidate subsets per late point. *)
let test_sampling_caps_enumeration () =
  let prog =
    Nvmir.Parser.parse
      {|
struct cell { v: int }
func main() {
entry:
  a = alloc pmem cell
  b = alloc pmem cell
  c = alloc pmem cell
  d = alloc pmem cell
  e = alloc pmem cell
  store a->v, 1
  store b->v, 2
  store c->v, 3
  store d->v, 4
  store e->v, 5
  ret
}
|}
  in
  let r = explore ~bound:8 prog in
  let sampled_points =
    List.filter
      (fun (pt : Runtime.Crash_space.point_result) ->
        pt.Runtime.Crash_space.sampled)
      r.Runtime.Crash_space.points
  in
  check Alcotest.bool "some points exceeded the bound" true
    (sampled_points <> []);
  List.iter
    (fun (pt : Runtime.Crash_space.point_result) ->
      check Alcotest.int "sampled point enumerates exactly bound subsets" 8
        pt.Runtime.Crash_space.subsets_enumerated)
    sampled_points;
  (* exhaustive points stay within the bound too *)
  List.iter
    (fun (pt : Runtime.Crash_space.point_result) ->
      check Alcotest.bool "within bound" true
        (pt.Runtime.Crash_space.subsets_enumerated <= 8))
    r.Runtime.Crash_space.points

(* The Figure 9 pattern: a write left volatile at exit is exactly one
   inconsistent image — the completed run's durable state misses it. *)
let test_lost_write_at_exit () =
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
  let r = explore prog in
  check Alcotest.bool "inconsistency found" true
    (r.Runtime.Crash_space.inconsistent > 0);
  let exit_witness =
    List.exists
      (fun (w : Runtime.Crash_space.witness) ->
        w.Runtime.Crash_space.w_task = Runtime.Crash_space.Exit
        && w.Runtime.Crash_space.w_persisted = [])
      r.Runtime.Crash_space.witnesses
  in
  check Alcotest.bool "witnessed at exit with nothing persisted" true
    exit_witness

(* Determinism: the same seed explores the same images. *)
let test_deterministic () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let r1 = explore ~seed:7 prog in
  let r2 = explore ~seed:7 prog in
  check Alcotest.int "same enumeration" r1.Runtime.Crash_space.images_enumerated
    r2.Runtime.Crash_space.images_enumerated;
  check Alcotest.int "same distinct count"
    r1.Runtime.Crash_space.images_distinct r2.Runtime.Crash_space.images_distinct;
  check Alcotest.int "same verdicts" r1.Runtime.Crash_space.inconsistent
    r2.Runtime.Crash_space.inconsistent

(* Parallel fan-out agrees with a run on the calling domain alone. *)
let test_parallel_matches_sequential () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let seq = Deepmc.Crash_sweep.explore_program ~domains:1 ~entry:"main" prog in
  let par = Deepmc.Crash_sweep.explore_program ~domains:4 ~entry:"main" prog in
  check Alcotest.int "crash points" seq.Runtime.Crash_space.crash_points
    par.Runtime.Crash_space.crash_points;
  check Alcotest.int "images" seq.Runtime.Crash_space.images_enumerated
    par.Runtime.Crash_space.images_enumerated;
  check Alcotest.int "inconsistent" seq.Runtime.Crash_space.inconsistent
    par.Runtime.Crash_space.inconsistent

(* materialize with no lines persisted is the durable snapshot. *)
let test_materialize_empty_is_snapshot () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let pmem = Runtime.Pmem.create () in
  let interp = Runtime.Interp.create ~pmem prog in
  ignore (Runtime.Interp.run ~entry:"main" interp);
  let snap = Runtime.Pmem.durable_snapshot pmem in
  let img = Runtime.Pmem.materialize pmem ~persist:[] in
  Hashtbl.iter
    (fun id arr ->
      let arr' =
        match Hashtbl.find_opt img id with
        | Some a -> a
        | None -> Alcotest.fail "object missing from materialized image"
      in
      Array.iteri
        (fun slot v ->
          check Alcotest.bool
            (Fmt.str "obj %d slot %d" id slot)
            true
            (v = arr'.(slot)))
        arr)
    snap

(* The prefix image is the first image of every task, at any bound:
   [task_images] starts with the empty persisted-subset, and that image
   is exactly [Pmem.durable_snapshot] of the crashed heap — so sampling
   never loses it. Swept over every corpus program with a runnable entry
   and three synth programs. *)
let test_prefix_image_first () =
  let bindings img =
    Hashtbl.fold (fun id arr acc -> (id, Array.to_list arr) :: acc) img []
    |> List.sort compare
  in
  let corpus =
    List.filter_map
      (fun (p : Corpus.Types.program) ->
        let prog = Corpus.Types.parse p in
        Option.map
          (fun _ -> (p.Corpus.Types.name, p.Corpus.Types.entry,
                     p.Corpus.Types.entry_args, prog))
          (Nvmir.Prog.find_func prog p.Corpus.Types.entry))
      (Corpus.Registry.all @ Corpus.Recovery.programs)
  in
  let synth =
    List.map
      (fun seed ->
        let cfg =
          { Corpus.Synth.default_config with Corpus.Synth.nfuncs = 6; seed }
        in
        (Fmt.str "synth seed %d" seed, "main", [], fst (Corpus.Synth.generate cfg)))
      [ 1; 2; 3 ]
  in
  check Alcotest.bool "corpus programs covered" true (List.length corpus >= 20);
  List.iter
    (fun (name, entry, args, prog) ->
      let r = Runtime.Crash_space.record ~entry ~args prog in
      let all_tasks =
        Runtime.Crash_space.(tasks ~crash_points:(count_points r))
      in
      List.iter
        (fun bound ->
          List.iter
            (fun task ->
              let heap, images, _ =
                Runtime.Crash_space.task_images ~bound ~task r
              in
              let where =
                Fmt.str "%s, bound %d, %a" name bound Runtime.Crash_space.pp_task
                  task
              in
              match images with
              | [] -> Alcotest.fail (where ^ ": no image")
              | ci :: _ ->
                check Alcotest.bool (where ^ ": nothing persisted") true
                  (ci.Runtime.Crash_space.ci_persisted = []);
                check Alcotest.bool (where ^ ": equals the durable snapshot")
                  true
                  (bindings ci.Runtime.Crash_space.ci_image
                  = bindings (Runtime.Pmem.durable_snapshot heap)))
            all_tasks)
        [ 1; 2; 8; 256 ])
    (corpus @ synth)

let suite =
  [
    tc "prefix violations are a subset of image-space violations" `Quick
      test_prefix_subset;
    tc "fixed hashmap clean at any bound" `Quick test_fixed_clean_at_any_bound;
    tc "synth buggy/fixed pairs differential" `Quick test_synth_pairs;
    tc "corpus fixed hashmap image-space consistent" `Quick
      test_corpus_hashmap_fixed;
    tc "sampling caps enumeration at the bound" `Quick
      test_sampling_caps_enumeration;
    tc "lost write witnessed at exit (Fig. 9)" `Quick test_lost_write_at_exit;
    tc "exploration is deterministic" `Quick test_deterministic;
    tc "parallel sweep matches sequential explore" `Quick
      test_parallel_matches_sequential;
    tc "materialize [] = durable snapshot" `Quick
      test_materialize_empty_is_snapshot;
    tc "prefix image is first at any bound" `Quick test_prefix_image_first;
  ]
