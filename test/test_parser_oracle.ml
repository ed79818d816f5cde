(* Differential suite: the NVMIR front end against the reference lexer
   and parser in [ref_parser.ml]. Both must build structurally identical
   programs, every location included, and raise the same parse errors,
   except for the three errors the front end now reports better: a
   repeated definition (the reference lets [Prog] or [Ty] raise
   [Invalid_argument]), a malformed '@' annotation (the reference
   reports it at line 0) and an '@' with nothing after it on its line
   (the reference reads the next line's first word as its location). *)

let tc = Alcotest.test_case

type outcome =
  | Parsed of Nvmir.Ty.struct_def list * Nvmir.Func.t list
  | Error of string * int
  | Raised of string (* the reference's [Invalid_argument] *)

let pp_outcome ppf = function
  | Parsed (ss, fs) ->
    Fmt.pf ppf "parsed (%d structs, %d functions)" (List.length ss)
      (List.length fs)
  | Error (m, line) -> Fmt.pf ppf "Parse_error (%S, %d)" m line
  | Raised m -> Fmt.pf ppf "Invalid_argument %S" m

let parsed p = Parsed (Nvmir.Prog.structs p, Nvmir.Prog.funcs p)

let fast src =
  match Nvmir.Parser.parse src with
  | p -> parsed p
  | exception Nvmir.Parser.Parse_error (m, line) -> Error (m, line)

let reference src =
  match Ref_parser.Parser.parse src with
  | p -> parsed p
  | exception Ref_parser.Parser.Parse_error (m, line) -> Error (m, line)
  | exception Invalid_argument m -> Raised m

let drop_prefix ~prefix s =
  if String.starts_with ~prefix s then
    let n = String.length prefix in
    Some (String.sub s n (String.length s - n))
  else None

(* Whether line [line] of [src] has an '@' followed by nothing but
   blanks or a comment. *)
let dangling_at src line =
  match List.nth_opt (String.split_on_char '\n' src) (line - 1) with
  | None -> false
  | Some l ->
    let after i =
      String.trim (String.sub l (i + 1) (String.length l - i - 1))
    in
    let blank rest =
      rest = ""
      || List.exists (fun prefix -> String.starts_with ~prefix rest)
           [ "#"; ";"; "//" ]
    in
    List.exists
      (fun i -> l.[i] = '@' && blank (after i))
      (List.init (String.length l) Fun.id)

(* What the front end must answer where the reference answered [r] on
   [src]: a duplicate's [Invalid_argument] becomes a [Parse_error] with
   the [Prog]/[Ty] prefix dropped, at a real line; a location error
   keeps its message and moves off line 0; a dangling '@' is an empty
   location at its own line, whatever the reference made of the next
   one; anything else is the same. *)
let agrees src r f =
  let moved_to_a_line m =
    match f with Error (m', line) -> String.equal m m' && line >= 1 | _ -> false
  in
  match (r, f) with
  | _, Error ("empty location after '@'", line) when r <> f ->
    dangling_at src line
  | Raised m, _ -> (
    match
      ( drop_prefix ~prefix:"Prog.add_func: " m,
        drop_prefix ~prefix:"Ty.env_add: " m )
    with
    | Some m, _ | None, Some m -> moved_to_a_line m
    | None, None -> false)
  | Error (m, 0), _ when String.starts_with ~prefix:"Loc.of_string: " m ->
    moved_to_a_line m
  | _ -> r = f

let check_same ~what src =
  let r = reference src and f = fast src in
  if not (agrees src r f) then
    Alcotest.failf "%s: reference %a, front end %a" what pp_outcome r
      pp_outcome f

let test_corpus () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      check_same ~what:p.Corpus.Types.name p.Corpus.Types.source;
      Option.iter
        (check_same ~what:(p.Corpus.Types.name ^ " (fixed)"))
        p.Corpus.Types.fixed_source)
    (Corpus.Registry.all @ Corpus.Recovery.programs)

let test_examples () =
  List.iter (check_same ~what:"examples/programs") Test_parser.example_sources

(* Every [Corpus.Synth] shape: plain, buggy and pointer-arithmetic
   workers, printed by [Prog.pp]. *)
let test_synth () =
  for seed = 1 to 200 do
    let cfg =
      {
        Corpus.Synth.default_config with
        seed;
        nfuncs = 4 + (seed mod 12);
        buggy_fraction_pct = seed mod 3 * 25;
        ptr_arith = seed mod 2 = 0;
      }
    in
    let prog, _ = Corpus.Synth.generate cfg in
    check_same
      ~what:(Fmt.str "synth seed %d" seed)
      (Fmt.str "%a" Nvmir.Prog.pp prog)
  done

(* The three fixes, by name, at the lines they must report. *)
let test_named_fixes () =
  let cases =
    [
      ( "func main() {\nentry:\n  ret\n}\nfunc main() {\nentry:\n  ret\n}",
        Raised "Prog.add_func: duplicate function main",
        Error ("duplicate function main", 5) );
      ( "struct s { a: int }\n\nstruct s { b: int }",
        Raised "Ty.env_add: duplicate struct s",
        Error ("duplicate struct s", 3) );
      ( "struct s { a: int }\nfunc f(p: ptr s) {\nentry:\n  store p->a, 1 \
         @ nocolon\n  ret\n}",
        Error ("Loc.of_string: missing ':' in nocolon", 0),
        Error ("Loc.of_string: missing ':' in nocolon", 4) );
      ( "struct s { a: int }\nfunc f(p: ptr s) {\nentry:\n  store p->a, 1 \
         @\n  ret\n}",
        Error ("Loc.of_string: missing ':' in ret", 0),
        Error ("empty location after '@'", 4) );
      ( "func f() {\nentry:\n  fence @ # note\n  ret\n}",
        Error ("Loc.of_string: missing ':' in ret", 0),
        Error ("empty location after '@'", 3) );
    ]
  in
  List.iter
    (fun (src, r, f) ->
      Alcotest.(check bool) "reference outcome" true (reference src = r);
      Alcotest.(check bool) "front end outcome" true (fast src = f))
    cases

(* Every spelling of a location, where an annotation belongs and where
   it does not (so its spelling is printed in the error). *)
let test_loc_spellings () =
  List.iter
    (fun word ->
      List.iter
        (fun src -> check_same ~what:src src)
        [
          "func f() {\nentry:\n  fence @ " ^ word ^ "\n  ret\n}";
          "func f() {\nentry:\n  @ " ^ word ^ "\n  ret\n}";
          "func f() {\nentry:\n  ret @ " ^ word ^ " @ " ^ word ^ "\n}";
        ])
    [
      "a.c:12"; "a.c:0"; "a.c:007"; "a.c:00"; "a.c:+5"; "a.c:0x1F";
      "a.c:1_000"; "a:b.c:7"; ":3"; "a.c:-1"; "a.c:"; "nocolon"; "a.c:1x";
      "a.c:123456789012345678"; "a.c:4611686018427387903";
      "a.c:4611686018427387904"; "a.c:99999999999999999999";
    ]

(* Integer literals around the 18-digit fast path and the native
   range. *)
let test_int_spellings () =
  List.iter
    (fun lit ->
      check_same ~what:lit
        ("func f() {\nentry:\n  x = " ^ lit ^ "\n  y = -" ^ lit ^ "\n  ret\n}"))
    [
      "0"; "-0"; "007"; "999999999999999999"; "-999999999999999999";
      "9999999999999999999"; "-9999999999999999999"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
      "0000000000000000000000007"; "18446744073709551616";
    ]

let prop_hostile =
  QCheck.Test.make ~name:"hostile text: same programs and errors" ~count:1000
    (Test_parser.hostile_program Test_parser.example_sources)
    (fun src ->
      let r = reference src and f = fast src in
      agrees src r f
      || QCheck.Test.fail_reportf "reference %a, front end %a" pp_outcome r
           pp_outcome f)

let suite =
  [
    tc "corpus programs identical" `Quick test_corpus;
    tc "examples/programs identical" `Quick test_examples;
    tc "200 printed synth programs identical" `Quick test_synth;
    tc "duplicate and location errors fixed" `Quick test_named_fixes;
    tc "location spellings" `Quick test_loc_spellings;
    tc "integer spellings" `Quick test_int_spellings;
    QCheck_alcotest.to_alcotest prop_hostile;
  ]
