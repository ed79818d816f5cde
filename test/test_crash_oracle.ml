(* The recorded crash explorer against its naive reference
   ([Ref_crash]): for every task of every corpus program (buggy and
   fixed), every example program and random straight-line programs, at
   bounds 1, 2, 8 and 256 and with eviction modeling off and on, the
   whole-run sweep must produce the reference's [point_result] (counts,
   sampling, witnesses in order) under the Sequential oracle, under an
   Invariant and with no oracle (no witnesses), and the same crash
   images, each restored as the recovery tier's post-crash heap with no
   media seed and with three: its durable contents, its objects with
   their types, names and corrupt flags, and the corruption list must
   match the reference's materialize-corrupt-restore path. The sweep
   starts before the first event and carries its crashed state forward,
   so every task checks the state carried from all the points before
   it. *)

let tc = Alcotest.test_case

module Crash_space = Runtime.Crash_space
module Pmem = Runtime.Pmem

let bounds = [ 1; 2; 8; 256 ]

let configs =
  [
    ("no eviction", Runtime.Config.default);
    ("eviction", { Runtime.Config.default with track_eviction = true });
  ]

let bindings img =
  Hashtbl.fold (fun id arr acc -> (id, Array.to_list arr) :: acc) img []
  |> List.sort compare

(* The media seeds each image is restored under: none, and three. *)
let media_seeds = [ None; Some 1; Some 138; Some 2024 ]

(* What the recovery tier reads of a restored heap. *)
let heap_rows heap =
  let objects =
    List.map
      (fun obj_id ->
        ( obj_id,
          Pmem.is_persistent heap obj_id,
          Pmem.obj_ty heap obj_id,
          Pmem.obj_name heap obj_id,
          List.init (Pmem.obj_size heap obj_id) (fun slot ->
              Pmem.is_corrupt heap { Pmem.obj_id; slot }) ))
      (Pmem.live_objects heap)
  in
  (bindings (Pmem.durable_snapshot heap), objects, Pmem.corrupt_slot_count heap)

(* An image restored under every media seed, read at once. *)
let image_row (ci : Crash_space.crash_image) =
  ( ci.Crash_space.ci_task,
    ci.ci_persisted,
    List.map
      (fun seed ->
        let heap, corruptions = ci.ci_restore seed in
        (heap_rows heap, corruptions))
      media_seeds )

(* An invariant that depends on image contents, so the Invariant path is
   compared too: slot 0 of object 0 may not be durable ahead of slot 1. *)
let invariant read =
  let v slot = read { Pmem.obj_id = 0; slot } in
  if v 0 <> Runtime.Value.Vnull && v 1 = Runtime.Value.Vnull then
    Error "slot 0 durable before slot 1"
  else Ok ()

(* [None] when the program cannot run to completion: the reference must
   then fail too. *)
let agree ~config ~entry ~args prog =
  match Test_crash_space.record ~config ~entry ~args prog with
  | exception e ->
    (match Ref_crash.count_points ~config ~entry ~args prog with
    | exception _ -> ()
    | _ -> Alcotest.failf "recording raised %s, reference ran" (Printexc.to_string e));
    None
  | r ->
    let points = Crash_space.count_points r in
    if points <> Ref_crash.count_points ~config ~entry ~args prog then
      Alcotest.fail "crash-point counts differ";
    let tasks = Crash_space.tasks ~crash_points:points in
    let mismatches = ref [] in
    let where bound task fmt =
      Fmt.kstr
        (fun s -> mismatches := s :: !mismatches)
        ("bound %d, %a: " ^^ fmt) bound Crash_space.pp_task task
    in
    (* [results] against the reference's, task by task *)
    let compare_tasks bound what results expected =
      if List.length results <> List.length expected then
        where bound Crash_space.Exit "%s: %d results for %d tasks" what
          (List.length results) (List.length expected)
      else
        List.iteri
          (fun n (got, want) ->
            if got <> want then where bound (List.nth tasks n) "%s differs" what)
          (List.combine results expected)
    in
    List.iter
      (fun bound ->
        let expected_images =
          List.map
            (fun task ->
              let images, sampled =
                Ref_crash.crash_images ~config ~entry ~args ~bound ~task prog
              in
              (List.map image_row images, sampled))
            tasks
        in
        List.iter
          (fun (oname, oracle) ->
            let expected =
              List.map
                (fun task ->
                  let pt =
                    Ref_crash.explore_task ~config ~entry ~args ~bound
                      ?oracle ~task prog
                  in
                  if oracle = None then { pt with Crash_space.witnesses = [] }
                  else pt)
                tasks
            in
            (* the sweep moves on, so its images are restored inside
               the callback *)
            let groups =
              Test_crash_space.images_by_task ~bound ?oracle r image_row
            in
            compare_tasks bound
              (Fmt.str "%s point_result" oname)
              (List.map fst groups) expected;
            compare_tasks bound
              (Fmt.str "crash images (%s)" oname)
              (List.map
                 (fun ((pt : Crash_space.point_result), rows) ->
                   (rows, pt.sampled))
                 groups)
              expected_images)
          [
            ("sequential", Some Crash_space.Sequential);
            ("invariant", Some (Crash_space.Invariant invariant));
            ("no oracle", None);
          ])
      bounds;
    Some (List.rev !mismatches)

let check_program name ~entry ~args prog =
  List.iter
    (fun (cname, config) ->
      match agree ~config ~entry ~args prog with
      | None | Some [] -> ()
      | Some (m :: _ as ms) ->
        Alcotest.failf "%s (%s): %d mismatch(es), first: %s" name cname
          (List.length ms) m)
    configs

(* Every corpus and recovery-corpus program, buggy and fixed, with a
   defined entry: (name, entry, args, program). *)
let corpus_programs () =
  List.concat_map
    (fun (p : Corpus.Types.program) ->
      let variant tag prog =
        match Nvmir.Prog.find_func prog p.Corpus.Types.entry with
        | Some _ ->
          [
            ( p.Corpus.Types.name ^ tag,
              p.Corpus.Types.entry,
              p.Corpus.Types.entry_args,
              prog );
          ]
        | None -> []
      in
      variant "" (Corpus.Types.parse p)
      @
      match Corpus.Types.parse_fixed p with
      | Some f -> variant " (fixed)" f
      | None -> [])
    (Corpus.Registry.all @ Corpus.Recovery.programs)

(* [dune runtest] runs from the test directory, [dune exec] from the
   root. *)
let examples_dir =
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

(* Every example program with a [main], in the same shape. *)
let example_programs () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nvmir")
  |> List.sort String.compare
  |> List.filter_map (fun f ->
         let prog =
           Nvmir.Parser.parse
             (In_channel.with_open_bin (Filename.concat examples_dir f)
                In_channel.input_all)
         in
         Option.map (fun _ -> (f, "main", [], prog))
           (Nvmir.Prog.find_func prog "main"))

let test_corpus () =
  let programs = corpus_programs () in
  Alcotest.(check bool) "corpus programs covered" true (List.length programs >= 20);
  List.iter
    (fun (name, entry, args, prog) -> check_program name ~entry ~args prog)
    programs

let test_examples () =
  let programs = example_programs () in
  Alcotest.(check bool) "example programs found" true (List.length programs >= 6);
  List.iter
    (fun (name, entry, args, prog) -> check_program name ~entry ~args prog)
    programs

(* One sweep feeds both tiers as two would: the joint sweep's crash
   report equals an oracle-only sweep's, and its recovery report a
   recovery-only sweep's. A program with no [recover] runs its entry as
   the recovery entry, so every image is restored and checked. *)
let test_one_sweep_equals_two () =
  List.iter
    (fun (name, entry, args, prog) ->
      match Test_crash_space.record ~entry ~args prog with
      | exception _ -> ()
      | r ->
        let recovery_entry =
          if Nvmir.Prog.find_func prog "recover" <> None then "recover"
          else entry
        in
        let sweep ?oracle ~recover () =
          Deepmc.Crash_sweep.sweep ~bound:Crash_space.default_bound ~seed:1
            ?oracle
            ?recovery:
              (if recover then
                 Some
                   (Recover.start ~recovery_entry ~seed:1 ~corrupt:true
                      ~model:Analysis.Model.Strict prog)
               else None)
            r
        in
        let crash, recovery =
          sweep ~oracle:Crash_space.Sequential ~recover:true ()
        in
        let crash_only, none =
          sweep ~oracle:Crash_space.Sequential ~recover:false ()
        in
        let _, recovery_only = sweep ~recover:true () in
        Alcotest.(check bool) (name ^ ": crash report") true (crash = crash_only);
        Alcotest.(check bool) (name ^ ": no recovery asked") true (none = None);
        Alcotest.(check bool)
          (name ^ ": recovery report") true
          (Option.is_some recovery && recovery = recovery_only))
    (corpus_programs () @ example_programs ())

(* A prefix image only counts if the crash point has reached it: after
   [x=1 (durable); x=2; y=3], the image {x=1, y=3} persists y ahead of
   x=2 and is a violation, even though the later write x=1 recreates it
   as the run's fourth prefix. *)
let test_later_prefix_is_not_reached () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { x: int, p1: int, p2: int, p3: int, p4: int, p5: int, p6: int, p7: int, y: int }
func main() {
entry:
  o = alloc pmem s
  store o->x, 1
  flush exact o->x
  fence
  store o->x, 2
  store o->y, 3
  store o->x, 1
  ret
}
|}
  in
  let r = Test_crash_space.record prog in
  let pt =
    List.find
      (fun (pt : Crash_space.point_result) -> pt.task = Crash_space.Point 5)
      (Crash_space.sweep ~bound:Crash_space.default_bound ~seed:1
         ~oracle:Crash_space.Sequential r ignore)
        .Crash_space.points
  in
  Alcotest.(check (list (list (pair int int))))
    "the y-only image is the one witness" [ [ (0, 1) ] ]
    (List.map
       (fun (w : Crash_space.witness) -> w.Crash_space.w_persisted)
       pt.Crash_space.witnesses);
  check_program "later prefix" ~entry:"main" ~args:[] prog

(* Random straight-line programs: stores, flushes, fences and (possibly
   unclosed, possibly nested) transactions over at most two objects of
   ten slots — two cache lines each — the second allocated mid-run.
   Only two slots per line and three values are used, so later writes
   often recreate an earlier prefix image. *)
type op =
  | Store of int * int * int
  | Flush of int * int
  | Fence
  | Tx_begin
  | Tx_add of int * int
  | Tx_end
  | Alloc_second

let gen_op =
  let open QCheck.Gen in
  let obj = int_range 0 1 and field = oneofl [ 0; 1; 8; 9 ] in
  frequency
    [
      (5, map3 (fun o f v -> Store (o, f, v)) obj field (int_range 1 3));
      (3, map2 (fun o f -> Flush (o, f)) obj field);
      (2, return Fence);
      (1, return Tx_begin);
      (1, map2 (fun o f -> Tx_add (o, f)) obj field);
      (1, return Tx_end);
      (1, return Alloc_second);
    ]

let render ops =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "struct s { f0: int, f1: int, f2: int, f3: int, f4: int, f5: int, f6: \
     int, f7: int, f8: int, f9: int }\n\
     func main() {\n\
     entry:\n\
    \  o0 = alloc pmem s\n";
  let second = ref false and depth = ref 0 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b ("  " ^ s ^ "\n")) fmt in
  let live o = o = 0 || !second in
  List.iter
    (function
      | Store (o, f, v) when live o -> line "store o%d->f%d, %d" o f v
      | Flush (o, f) when live o -> line "flush exact o%d->f%d" o f
      | Fence -> line "fence"
      | Tx_begin ->
        incr depth;
        line "tx_begin"
      | Tx_add (o, f) when live o && !depth > 0 -> line "tx_add exact o%d->f%d" o f
      | Tx_end when !depth > 0 ->
        decr depth;
        line "tx_end"
      | Alloc_second when not !second ->
        second := true;
        line "o1 = alloc pmem s"
      | _ -> ())
    ops;
  Buffer.add_string b "  ret\n}\n";
  Buffer.contents b

let prop_straight_line =
  QCheck.Test.make ~name:"recorded explorer = reference on straight-line programs"
    ~count:300
    (QCheck.make ~print:render QCheck.Gen.(list_size (int_range 1 16) gen_op))
    (fun ops ->
      let prog = Nvmir.Parser.parse (render ops) in
      List.for_all
        (fun (_, config) ->
          match agree ~config ~entry:"main" ~args:[] prog with
          | None | Some [] -> true
          | Some (m :: _) -> QCheck.Test.fail_report m)
        configs)

(* The corpus-wide crash totals of the benchmark's corpus pass: every
   program of the corpus and the recovery corpus from its entry, at
   bound 256 and seed 1, as [Driver.analyze] explores it. Any change to
   enumeration, pruning or the oracle moves one of these numbers. *)
let expected_inconsistent =
  [
    ("btree_map", 0); ("rbtree_map", 0); ("pminvaders", 0); ("hashmap", 0);
    ("hashmap_atomic", 0); ("obj_pmemlog", 0); ("obj_pmemlog_simple", 0);
    ("nvm_region", 0); ("nvm_heap", 0); ("nvm_locks", 0); ("pmfs_journal", 0);
    ("pmfs_symlink", 0); ("pmfs_xip", 0); ("pmfs_file", 0); ("pmfs_super", 0);
    ("phlog_base", 1); ("chhash", 0); ("chash", 0); ("journal_recover_crc", 0);
    ("journal_recover", 0);
  ]

let test_corpus_totals () =
  let reports =
    List.map
      (fun (p : Corpus.Types.program) ->
        ( p.Corpus.Types.name,
          Deepmc.Crash_sweep.explore_program ~bound:256 ~seed:1
            ~entry:p.Corpus.Types.entry ~args:p.Corpus.Types.entry_args
            (Corpus.Types.parse p) ))
      (Corpus.Registry.all @ Corpus.Recovery.programs)
  in
  let sum f = List.fold_left (fun n (_, r) -> n + f r) 0 reports in
  Alcotest.(check int) "programs" 20 (List.length reports);
  Alcotest.(check int) "crash points" 253
    (sum (fun r -> r.Crash_space.crash_points));
  Alcotest.(check int) "tasks (points + exits)" 273
    (sum (fun r -> List.length r.Crash_space.points));
  Alcotest.(check int) "subsets enumerated" 409
    (sum (fun r -> r.Crash_space.images_enumerated));
  Alcotest.(check int) "distinct images" 387
    (sum (fun r -> r.Crash_space.images_distinct));
  Alcotest.(check (list (pair string int)))
    "inconsistent images per program" expected_inconsistent
    (List.map (fun (name, r) -> (name, r.Crash_space.inconsistent)) reports)

let suite =
  [
    tc "corpus programs: recorded explorer = reference" `Quick test_corpus;
    tc "example programs: recorded explorer = reference" `Quick test_examples;
    tc "one sweep feeds both tiers as two would" `Quick
      test_one_sweep_equals_two;
    tc "a later prefix image is not reached" `Quick
      test_later_prefix_is_not_reached;
    QCheck_alcotest.to_alcotest prop_straight_line;
    tc "corpus crash totals at bound 256" `Quick test_corpus_totals;
  ]
