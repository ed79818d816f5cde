(* Remaining coverage: byte-extent flushes (static and runtime), the
   lexer's save/restore, interface annotations through the library API,
   crash-exposure exploration, JSON float formatting, and model
   metadata. *)

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Byte-extent flushes *)

let test_bytes_extent_static () =
  (* a buffer flush (pmfs_flush_buffer style) covers the written words *)
  let prog =
    Nvmir.Parser.parse
      {|
struct buf { data: int[16], len: int }
func main() {
entry:
  b = alloc pmem buf
  store b->data[0], 1
  store b->data[1], 2
  flush bytes(8) b->data[0]
  fence
  ret
}
|}
  in
  let r = Analysis.Checker.check ~model:Analysis.Model.Strict prog in
  check Alcotest.(list string) "buffer flush covers the writes" []
    (List.map
       (fun (w : Analysis.Warning.t) ->
         Analysis.Warning.rule_name w.Analysis.Warning.rule)
       r.Analysis.Checker.warnings)

let test_bytes_extent_runtime () =
  let prog =
    Nvmir.Parser.parse
      {|
struct buf { data: int[16], len: int }
func main() {
entry:
  b = alloc pmem buf
  store b->data[0], 7
  store b->data[9], 8
  flush bytes(2) b->data[0]
  fence
  ret
}
|}
  in
  let pmem = Runtime.Pmem.create () in
  let interp = Runtime.Interp.create ~pmem prog in
  ignore (Runtime.Interp.run ~entry:"main" interp);
  let durable slot =
    Runtime.Value.to_int
      (Runtime.Pmem.durable_value pmem { Runtime.Pmem.obj_id = 0; slot })
  in
  check Alcotest.int "covered word durable" 7 (durable 0);
  (* slot 9 is on the next cache line (default line = 8 slots) and the
     2-slot flush does not reach it *)
  check Alcotest.int "uncovered word volatile" 0 (durable 9)

(* ------------------------------------------------------------------ *)
(* Lexer save/restore *)

let test_lexer_save_restore () =
  let lx = Nvmir.Lexer.create "alpha beta gamma" in
  let tok1, _ = Nvmir.Lexer.next lx in
  let snap = Nvmir.Lexer.save lx in
  let tok2, _ = Nvmir.Lexer.next lx in
  Nvmir.Lexer.restore lx snap;
  let tok2', _ = Nvmir.Lexer.next lx in
  check Alcotest.bool "first token" true (tok1 = Nvmir.Lexer.IDENT "alpha");
  check Alcotest.bool "replay after restore" true (tok2 = tok2');
  check Alcotest.bool "second token" true (tok2 = Nvmir.Lexer.IDENT "beta")

(* ------------------------------------------------------------------ *)
(* Interface annotations (persistent_roots) *)

let lib_only_src =
  {|
struct s { f: int, g: int }
func update(p: ptr s) {
entry:
  store p->f, 1
  ret
}
|}

let test_persistent_roots_enable_library_checking () =
  let prog = Nvmir.Parser.parse lib_only_src in
  let unannotated = Analysis.Checker.check ~model:Analysis.Model.Strict prog in
  check Alcotest.int "parameter persistence unknown: silent" 0
    (List.length unannotated.Analysis.Checker.warnings);
  let annotated =
    Analysis.Checker.check
      ~config:
        { Analysis.Config.default with persistent_roots = [ ("update", "p") ] }
      ~model:Analysis.Model.Strict prog
  in
  check Alcotest.int "annotated parameter: unflushed write found" 1
    (List.length annotated.Analysis.Checker.warnings)

(* ------------------------------------------------------------------ *)
(* Crash-exposure exploration *)

let test_crash_explore_metrics () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  store p->g, 2
  ret
}
|}
  in
  let r = Deepmc.Crash_sweep.explore_program prog in
  (* the only inconsistent image: g lost at exit with nothing persisted *)
  check Alcotest.int "g never becomes durable" 1
    r.Runtime.Crash_space.inconsistent;
  check Alcotest.bool "lost at exit" true
    (List.for_all
       (fun (w : Runtime.Crash_space.witness) ->
         w.Runtime.Crash_space.w_task = Runtime.Crash_space.Exit)
       r.Runtime.Crash_space.witnesses);
  check Alcotest.bool "crash points explored" true
    (r.Runtime.Crash_space.crash_points > 0);
  (* right after the fence, f is durable and nothing is in flight *)
  check Alcotest.bool "some point has no exposure" true
    (List.exists
       (fun (pt : Runtime.Crash_space.point_result) ->
         pt.Runtime.Crash_space.candidate_lines = 0)
       r.Runtime.Crash_space.points)

let test_crash_explore_safe_program () =
  let prog =
    Nvmir.Parser.parse
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  ret
}
|}
  in
  let r = Deepmc.Crash_sweep.explore_program prog in
  check Alcotest.int "everything durable at end" 0
    r.Runtime.Crash_space.inconsistent

(* ------------------------------------------------------------------ *)
(* JSON floats and model metadata *)

let test_json_floats () =
  let open Deepmc.Json_report in
  check Alcotest.string "integral float" "2.0" (to_string (Float 2.0));
  check Alcotest.string "fractional float" "2.5" (to_string (Float 2.5))

let test_model_metadata () =
  check Alcotest.(option string) "epoch relaxes strict" (Some "strict")
    (Option.map Analysis.Model.to_string
       (Analysis.Model.relaxes Analysis.Model.Epoch));
  check Alcotest.(option string) "strand relaxes epoch" (Some "epoch")
    (Option.map Analysis.Model.to_string
       (Analysis.Model.relaxes Analysis.Model.Strand));
  check Alcotest.bool "strict relaxes nothing" true
    (Analysis.Model.relaxes Analysis.Model.Strict = None);
  List.iter
    (fun m ->
      check
        Alcotest.(option string)
        "of_string/to_string roundtrip"
        (Some (Analysis.Model.to_string m))
        (Option.map Analysis.Model.to_string
           (Analysis.Model.of_string (Analysis.Model.to_string m))))
    Analysis.Model.all;
  check Alcotest.string "flag spelling" "-epoch"
    (Analysis.Model.flag Analysis.Model.Epoch)

let suite =
  [
    tc "bytes extent: static coverage" `Quick test_bytes_extent_static;
    tc "bytes extent: runtime range" `Quick test_bytes_extent_runtime;
    tc "lexer: save/restore" `Quick test_lexer_save_restore;
    tc "interface annotations enable library checking" `Quick
      test_persistent_roots_enable_library_checking;
    tc "crash explore: lossy program metrics" `Quick test_crash_explore_metrics;
    tc "crash explore: safe program" `Quick test_crash_explore_safe_program;
    tc "json: float formatting" `Quick test_json_floats;
    tc "model: metadata" `Quick test_model_metadata;
  ]
