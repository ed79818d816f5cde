(* The recovery tier (lib/recover) and its media-corruption model
   (Runtime.Pmem): the CRC-validates-data axioms as QCheck properties
   over the crash-image space of the recovery corpus, determinism of
   the executor's verdicts, and the pinned verdict/warning shape of the
   guarded and unguarded bases. *)

let tc = Alcotest.test_case
let check = Alcotest.check

module Pmem = Runtime.Pmem
module Crash_space = Runtime.Crash_space

let guarded () = Corpus.Types.parse Corpus.Recovery.guarded
let unguarded () = Corpus.Types.parse Corpus.Recovery.unguarded

(* every crash task of [prog], so properties sweep the whole image
   space rather than one hand-picked point *)
let tasks prog =
  Crash_space.tasks
    ~crash_points:(Crash_space.count_points (Crash_space.record prog))

let corrupted_images ~seed prog =
  List.concat_map
    (fun task ->
      let pmem, images, _ = Crash_space.crash_images ~seed ~task prog in
      List.map
        (fun (ci : Crash_space.crash_image) ->
          let cs = Pmem.corrupt_image pmem ~seed ci.Crash_space.ci_image in
          let heap =
            Pmem.restore ~from:pmem ~image:ci.Crash_space.ci_image
              ~corrupt:(List.map (fun (c : Pmem.corruption) -> c.Pmem.c_addr) cs)
              ()
          in
          (heap, cs))
        images)
    (tasks prog)

(* Axiom 1: a CRC-guarded read never reports "valid" over a corrupted
   slot — even when handed the checksum of the corrupted contents (the
   collision case), because the corrupt flag alone must veto. *)
let prop_guard_rejects_every_corruption =
  QCheck.Test.make ~name:"crc_check never accepts a corrupted slot"
    ~count:30
    QCheck.(map (fun s -> 1 + abs s) int)
    (fun seed ->
      List.for_all
        (fun (heap, cs) ->
          List.for_all
            (fun (c : Pmem.corruption) ->
              let { Pmem.obj_id; slot } = c.Pmem.c_addr in
              let crc =
                Pmem.crc_of_range heap ~obj_id ~first_slot:slot ~nslots:1
              in
              not
                (Pmem.crc_check_range heap ~obj_id ~first_slot:slot ~nslots:1
                   ~crc:(Runtime.Value.Vint crc)))
            cs)
        (corrupted_images ~seed (unguarded ())))

(* Axiom 2: an uncorrupted restored image always validates — the guard
   has no false alarms that would make recovery reject good state. *)
let prop_uncorrupted_always_validates =
  QCheck.Test.make ~name:"uncorrupted images always validate" ~count:30
    QCheck.(map (fun s -> 1 + abs s) int)
    (fun seed ->
      let prog = guarded () in
      List.for_all
        (fun task ->
          let pmem, images, _ = Crash_space.crash_images ~seed ~task prog in
          List.for_all
            (fun (ci : Crash_space.crash_image) ->
              let heap =
                Pmem.restore ~from:pmem ~image:ci.Crash_space.ci_image
                  ~corrupt:[] ()
              in
              List.for_all
                (fun obj_id ->
                  (not (Pmem.is_persistent heap obj_id))
                  || Pmem.crc_check_range heap ~obj_id ~first_slot:0
                       ~nslots:(Pmem.obj_size heap obj_id)
                       ~crc:
                         (Runtime.Value.Vint
                            (Pmem.crc_of_range heap ~obj_id ~first_slot:0
                               ~nslots:(Pmem.obj_size heap obj_id))))
                (Pmem.live_objects heap))
            images)
        (tasks prog))

(* Axiom 3: the executor is a pure function of (program, seed) — same
   seed, byte-identical report; and the verdict partition always sums
   to the images checked. *)
let prop_verdicts_deterministic =
  QCheck.Test.make ~name:"recovery verdicts deterministic per seed"
    ~count:15
    QCheck.(map (fun s -> 1 + abs s) int)
    (fun seed ->
      List.for_all
        (fun prog_of ->
          let r1 = Recover.verify ~seed (prog_of ()) in
          let r2 = Recover.verify ~seed (prog_of ()) in
          String.equal
            (Fmt.str "%a" Recover.pp_report r1)
            (Fmt.str "%a" Recover.pp_report r2)
          && r1.Recover.restored + r1.Recover.flagged
             + r1.Recover.silent_accepts + r1.Recover.crashes
             = r1.Recover.images_checked)
        [ guarded; unguarded ])

(* The recovery corpus's pinned shape: the CRC-guarded base verifies
   clean; its unguarded twin is flagged for exactly the new rule
   classes the static tier cannot see. *)
let test_guarded_clean () =
  let r = Recover.verify ~seed:1 (guarded ()) in
  check Alcotest.bool "consistent" true (Recover.consistent r);
  check Alcotest.int "no silent accepts" 0 r.Recover.silent_accepts;
  check Alcotest.int "idempotent" 0 r.Recover.non_idempotent

let test_unguarded_flagged () =
  let r = Recover.verify ~seed:1 (unguarded ()) in
  check Alcotest.bool "inconsistent" false (Recover.consistent r);
  let rules =
    List.sort_uniq compare
      (List.map
         (fun (w : Analysis.Warning.t) ->
           Analysis.Warning.rule_name w.Analysis.Warning.rule)
         r.Recover.warnings)
  in
  check
    Alcotest.(list string)
    "new-class rules" [ "silent-corruption-accept"; "unguarded-recovery-read" ]
    rules;
  check Alcotest.bool "silent accepts observed" true
    (r.Recover.silent_accepts > 0)

(* Disabling corruption turns the recovery tier into a plain
   restart-consistency check: nothing to detect, nothing to heal. *)
let test_no_corrupt_mode () =
  let r = Recover.verify ~seed:1 ~corrupt:false (unguarded ()) in
  check Alcotest.int "no corruption injected" 0 r.Recover.corruptions_injected;
  check Alcotest.bool "clean without corruption" true (Recover.consistent r)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_guard_rejects_every_corruption;
    QCheck_alcotest.to_alcotest prop_uncorrupted_always_validates;
    QCheck_alcotest.to_alcotest prop_verdicts_deterministic;
    tc "guarded recovery base verifies clean" `Quick test_guarded_clean;
    tc "unguarded recovery base is flagged" `Quick test_unguarded_flagged;
    tc "corrupt:false is a restart-consistency check" `Quick
      test_no_corrupt_mode;
  ]
