(* The recorded crash explorer against its naive reference
   ([Ref_crash]): for every task of every corpus program (buggy and
   fixed), every example program and random straight-line programs, at
   bounds 1, 2, 8 and 256 and with eviction modeling off and on, both
   must produce the same [point_result] (counts, sampling, witnesses in
   order) and the same [task_images] lists and crashed heaps. *)

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

let image_rows images =
  List.map
    (fun (ci : Crash_space.crash_image) ->
      (ci.Crash_space.ci_task, ci.ci_persisted, bindings ci.ci_image))
    images

(* What a crashed heap exposes to the recovery tier. *)
let heap_rows heap =
  ( bindings (Pmem.durable_snapshot heap),
    Pmem.inflight_lines heap,
    Pmem.volatile_slot_count heap )

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
  match Crash_space.record ~config ~entry ~args prog with
  | exception e ->
    (match Ref_crash.count_points ~config ~entry ~args prog with
    | exception _ -> ()
    | _ -> Alcotest.failf "recording raised %s, reference ran" (Printexc.to_string e));
    None
  | r ->
    let points = Crash_space.count_points r in
    if points <> Ref_crash.count_points ~config ~entry ~args prog then
      Alcotest.fail "crash-point counts differ";
    let mismatches = ref [] in
    List.iter
      (fun bound ->
        List.iter
          (fun task ->
            let where fmt =
              Fmt.kstr
                (fun s -> mismatches := s :: !mismatches)
                ("bound %d, %a: " ^^ fmt) bound Crash_space.pp_task task
            in
            List.iter
              (fun (oname, oracle) ->
                if
                  Crash_space.explore_task ~bound ~oracle ~task r
                  <> Ref_crash.explore_task ~config ~entry ~args ~bound ~oracle
                       ~task prog
                then where "%s point_result differs" oname)
              [
                ("sequential", Crash_space.Sequential);
                ("invariant", Crash_space.Invariant invariant);
              ];
            let heap, images, sampled = Crash_space.task_images ~bound ~task r in
            let rheap, rimages, rsampled =
              Ref_crash.crash_images ~config ~entry ~args ~bound ~task prog
            in
            if image_rows images <> image_rows rimages || sampled <> rsampled
            then where "crash images differ";
            if heap_rows heap <> heap_rows rheap then where "crashed heaps differ")
          (Crash_space.tasks ~crash_points:points))
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

let test_corpus () =
  let programs =
    List.concat_map
      (fun (p : Corpus.Types.program) ->
        let variant tag prog =
          match Nvmir.Prog.find_func prog p.Corpus.Types.entry with
          | Some _ -> [ (p.Corpus.Types.name ^ tag, p, prog) ]
          | None -> []
        in
        variant "" (Corpus.Types.parse p)
        @
        match Corpus.Types.parse_fixed p with
        | Some f -> variant " (fixed)" f
        | None -> [])
      (Corpus.Registry.all @ Corpus.Recovery.programs)
  in
  Alcotest.(check bool) "corpus programs covered" true (List.length programs >= 20);
  List.iter
    (fun (name, (p : Corpus.Types.program), prog) ->
      check_program name ~entry:p.Corpus.Types.entry
        ~args:p.Corpus.Types.entry_args prog)
    programs

(* [dune runtest] runs from the test directory, [dune exec] from the
   root. *)
let examples_dir =
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let test_examples () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nvmir")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "example programs found" true (List.length files >= 6);
  List.iter
    (fun f ->
      let src =
        In_channel.with_open_bin (Filename.concat examples_dir f)
          In_channel.input_all
      in
      let prog = Nvmir.Parser.parse src in
      if Nvmir.Prog.find_func prog "main" <> None then
        check_program f ~entry:"main" ~args:[] prog)
    files

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
  let r = Crash_space.record prog in
  let pt = Crash_space.explore_task ~task:(Crash_space.Point 5) r in
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

let suite =
  [
    tc "corpus programs: recorded explorer = reference" `Quick test_corpus;
    tc "example programs: recorded explorer = reference" `Quick test_examples;
    tc "a later prefix image is not reached" `Quick
      test_later_prefix_is_not_reached;
    QCheck_alcotest.to_alcotest prop_straight_line;
  ]
