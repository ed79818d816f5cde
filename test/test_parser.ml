(* Tests for the textual-format lexer and parser, including the
   pretty-print/re-parse round trip on hand-written and generated
   programs. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let parses src = Nvmir.Parser.parse src

let test_parse_struct () =
  let prog = parses "struct p { a: int, b: int[4], c: ptr p }" in
  match Nvmir.Ty.env_find (Nvmir.Prog.tenv prog) "p" with
  | Some sd -> check Alcotest.int "three fields" 3 (List.length sd.Nvmir.Ty.fields)
  | None -> Alcotest.fail "struct p missing"

let test_parse_instructions () =
  let prog =
    parses
      {|
struct s { f: int, g: int }
func all_instrs(p: ptr s, n: int) -> int {
entry:
  x = 1
  y = x + n
  z = alloc pmem s
  w = alloc vmem s
  a = addr p->f
  store p->f, y            @ t.c:10
  l = load p->f
  flush exact p->f
  fence
  persist object p
  tx_begin
  tx_add exact p->g
  store p->g, 2
  tx_end
  epoch_begin
  epoch_end
  strand_begin 1
  strand_end 1
  r = call helper(p, 3)
  call helper(p, 4)
  ret r
}
func helper(p: ptr s, n: int) -> int {
entry:
  ret n
}
|}
  in
  check Alcotest.int "no validation errors" 0
    (List.length (Nvmir.Prog.validate prog));
  match Nvmir.Prog.find_func prog "all_instrs" with
  | None -> Alcotest.fail "function missing"
  | Some f ->
    check Alcotest.int "instruction count (incl. terminator)" 21 (Nvmir.Func.instr_count f)

let test_parse_locations () =
  let prog =
    parses
      {|
func f(p: ptr int) {
entry:
  store p, 1   @ src/deep/file.c:42
  ret
}
struct unused { x: int }
|}
  in
  match Nvmir.Prog.find_func prog "f" with
  | None -> Alcotest.fail "missing"
  | Some f ->
    let instr = List.hd (Nvmir.Func.entry_block f).Nvmir.Func.instrs in
    check Alcotest.string "file" "src/deep/file.c"
      (Nvmir.Loc.file instr.Nvmir.Instr.loc);
    check Alcotest.int "line" 42 (Nvmir.Loc.line instr.Nvmir.Instr.loc)

let test_parse_branches () =
  let prog =
    parses
      {|
func f(n: int) -> int {
entry:
  c = n > 0
  br c, pos, neg
pos:
  ret 1
neg:
  ret 0
}
|}
  in
  check Alcotest.int "valid" 0 (List.length (Nvmir.Prog.validate prog));
  match Nvmir.Prog.find_func prog "f" with
  | Some f -> check Alcotest.int "three blocks" 3 (List.length f.Nvmir.Func.blocks)
  | None -> Alcotest.fail "missing"

(* "ret" followed by a new block label must not swallow the label. *)
let test_parse_ret_label_ambiguity () =
  let prog =
    parses
      {|
func f() {
entry:
  ret
after:
  ret
}
|}
  in
  match Nvmir.Prog.find_func prog "f" with
  | Some f -> check Alcotest.int "two blocks" 2 (List.length f.Nvmir.Func.blocks)
  | None -> Alcotest.fail "missing"

let test_parse_ret_value_vs_label () =
  let prog =
    parses {|
func f(x: int) -> int {
entry:
  ret x
}
|}
  in
  match Nvmir.Prog.find_func prog "f" with
  | Some f -> (
    match (Nvmir.Func.entry_block f).Nvmir.Func.term with
    | Nvmir.Func.Ret (Some (Nvmir.Operand.Var "x")) -> ()
    | _ -> Alcotest.fail "expected ret x")
  | None -> Alcotest.fail "missing"

let test_parse_comments () =
  let prog =
    parses
      {|
# hash comment
// slash comment
; semicolon comment
func f() {
entry:
  ret    ; trailing comment
}
|}
  in
  check Alcotest.int "one function" 1 (List.length (Nvmir.Prog.funcs prog))

let test_parse_negative_literal () =
  let prog =
    parses {|
func f() {
entry:
  x = -3
  y = x - 1
  ret
}
|}
  in
  match Nvmir.Prog.find_func prog "f" with
  | Some f -> (
    match (Nvmir.Func.entry_block f).Nvmir.Func.instrs with
    | [ { Nvmir.Instr.kind = Nvmir.Instr.Assign { src = Nvmir.Operand.Const (-3); _ }; _ };
        { Nvmir.Instr.kind = Nvmir.Instr.Binop { op = Nvmir.Instr.Sub; _ }; _ } ] -> ()
    | _ -> Alcotest.fail "unexpected instruction shapes")
  | None -> Alcotest.fail "missing"

let test_parse_errors () =
  let expect_error src =
    match Nvmir.Parser.parse src with
    | exception Nvmir.Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  expect_error "func f( {";
  expect_error "struct s { a }";
  expect_error "func f() { entry: store }";
  expect_error "blah";
  expect_error "func f() { entry: flush wrong p }"

(* An integer literal outside the native range is a parse error carrying
   its line, not an [int_of_string] failure; [min_int] itself lexes. *)
let test_parse_int_literal_range () =
  (match
     Nvmir.Parser.parse "func f() {\nentry:\n  x = 99999999999999999999999\n}"
   with
  | exception Nvmir.Parser.Parse_error (_, line) ->
    check Alcotest.int "error line" 3 line
  | _ -> Alcotest.fail "overflowing literal accepted");
  let prog =
    parses
      (Fmt.str "func f() {\nentry:\n  x = %d\n  ret\n}" min_int)
  in
  match Nvmir.Prog.find_func prog "f" with
  | Some f -> (
    match (Nvmir.Func.entry_block f).Nvmir.Func.instrs with
    | { Nvmir.Instr.kind =
          Nvmir.Instr.Assign { src = Nvmir.Operand.Const n; _ }; _ } :: _ ->
      check Alcotest.int "min_int" min_int n
    | _ -> Alcotest.fail "unexpected instruction shape")
  | None -> Alcotest.fail "missing"

(* Pretty-print then re-parse: the structural content survives. *)
let roundtrip_structurally_equal (p1 : Nvmir.Prog.t) =
  let text = Fmt.str "%a" Nvmir.Prog.pp p1 in
  let p2 = Nvmir.Parser.parse text in
  let sig_of p =
    List.map
      (fun f ->
        ( Nvmir.Func.name f,
          List.length f.Nvmir.Func.blocks,
          (* comments are dropped by the comment-as-';' convention *)
          List.fold_left
            (fun acc (b : Nvmir.Func.block) ->
              acc
              + List.length
                  (List.filter
                     (fun (i : Nvmir.Instr.t) ->
                       match i.Nvmir.Instr.kind with
                       | Nvmir.Instr.Comment _ -> false
                       | _ -> true)
                     b.Nvmir.Func.instrs))
            0 f.Nvmir.Func.blocks ))
      (Nvmir.Prog.funcs p)
  in
  sig_of p1 = sig_of p2

let test_roundtrip_corpus () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      if not (roundtrip_structurally_equal prog) then
        Alcotest.fail ("roundtrip failed for " ^ p.Corpus.Types.name))
    Corpus.Registry.all

let prop_roundtrip_synth =
  QCheck.Test.make ~name:"pp/parse roundtrip on generated programs" ~count:30
    QCheck.(map (fun seed -> abs seed) int)
    (fun seed ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 8; nstructs = 2 }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      roundtrip_structurally_equal prog)

let prop_synth_validates =
  QCheck.Test.make ~name:"generated programs validate" ~count:30
    QCheck.(map (fun seed -> abs seed) int)
    (fun seed ->
      let cfg =
        { Corpus.Synth.default_config with seed; nfuncs = 10; nstructs = 3 }
      in
      let prog, _ = Corpus.Synth.generate cfg in
      Nvmir.Prog.validate prog = [])

(* ------------------------------------------------------------------ *)
(* Hostile input *)

(* [s] with one to four random byte edits (overwrite, insert, insert a
   run of up to 32 copies, or delete); half the inserted bytes come from
   the NVMIR/JSON punctuation, so the edits reach the structural paths,
   and runs reach long literals and deep nesting. *)
let mutate_text st s =
  let punct = "{}[]():,\"\\-+.eE0123456789@#/;*>=\n\t u" in
  let byte () =
    if Random.State.bool st then
      punct.[Random.State.int st (String.length punct)]
    else Char.chr (Random.State.int st 256)
  in
  let edit s =
    let n = String.length s in
    let i = Random.State.int st (n + 1) in
    let pre = String.sub s 0 i in
    let after = if i < n then String.sub s (i + 1) (n - i - 1) else "" in
    match Random.State.int st 4 with
    | 0 -> pre ^ String.make 1 (byte ()) ^ after
    | 1 -> pre ^ String.make 1 (byte ()) ^ String.sub s i (n - i)
    | 2 ->
      pre ^ String.make (1 + Random.State.int st 32) (byte ())
      ^ String.sub s i (n - i)
    | _ -> pre ^ after
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Random.State.int st 4) s

(* Random bytes, or one of [seeds] after [mutate_text]. *)
let hostile_text seeds =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (0 -- 64);
          (fun st ->
            let seed = List.nth seeds (int_bound (List.length seeds - 1) st) in
            mutate_text st seed);
        ])

let example_sources =
  Sys.readdir Test_crash_oracle.examples_dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nvmir")
  |> List.sort String.compare
  |> List.map (fun f ->
         In_channel.with_open_bin
           (Filename.concat Test_crash_oracle.examples_dir f)
           In_channel.input_all)

let prop_parse_raises_only_parse_error =
  QCheck.Test.make ~name:"hostile text raises only Parse_error" ~count:1000
    (hostile_text example_sources)
    (fun src ->
      match Nvmir.Parser.parse src with
      | _ -> true
      | exception Nvmir.Parser.Parse_error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite =
  [
    tc "parse: struct" `Quick test_parse_struct;
    tc "parse: every instruction form" `Quick test_parse_instructions;
    tc "parse: location annotations" `Quick test_parse_locations;
    tc "parse: branches" `Quick test_parse_branches;
    tc "parse: ret/label ambiguity" `Quick test_parse_ret_label_ambiguity;
    tc "parse: ret with value" `Quick test_parse_ret_value_vs_label;
    tc "parse: comments" `Quick test_parse_comments;
    tc "parse: negative literals" `Quick test_parse_negative_literal;
    tc "parse: malformed inputs rejected" `Quick test_parse_errors;
    tc "parse: out-of-range integer literal" `Quick
      test_parse_int_literal_range;
    tc "roundtrip: whole corpus" `Quick test_roundtrip_corpus;
    QCheck_alcotest.to_alcotest prop_roundtrip_synth;
    QCheck_alcotest.to_alcotest prop_synth_validates;
    QCheck_alcotest.to_alcotest prop_parse_raises_only_parse_error;
  ]
