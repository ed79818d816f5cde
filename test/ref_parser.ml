(* Reference front end: the NVMIR lexer and parser as they were before
   the lexer learned to scan identifiers, digits and locations in
   dedicated loops and the parser stopped comparing tokens with
   polymorphic equality. [Nvmir.Parser.parse] must build structurally
   identical programs (every [Loc] included) and raise the same
   [Parse_error]s, except where the fast parser deliberately reports
   better: a repeated struct or function name (here an
   [Invalid_argument] from [Prog]) and a malformed '@' annotation (here
   reported at line 0). The differential suite in [test_parser.ml]
   checks both. *)

open Nvmir

module Lexer = struct
  (* Hand-rolled lexer for the textual .nvmir format.

     Comments run from '#' or "//" to end of line. The '@' sign introduces
     a source-location annotation and greedily consumes the following
     non-whitespace word (e.g. "@ btree_map.c:201"), which keeps file names
     with dots and slashes out of the main token grammar. *)

  type token =
    | IDENT of string
    | INT of int
    | AT_LOC of string
    | LPAREN
    | RPAREN
    | LBRACE
    | RBRACE
    | LBRACK
    | RBRACK
    | COMMA
    | COLON
    | ARROW (* -> *)
    | EQUAL (* = *)
    | OP of string (* binary operators: + - * / == != < <= > >= && || *)
    | EOF

  type t = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable peeked : (token * int) option; (* token and its line *)
  }

  exception Error of string * int (* message, line *)

  let create src = { src; pos = 0; line = 1; peeked = None }

  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let rec skip_ws t =
    if t.pos >= String.length t.src then ()
    else
      match t.src.[t.pos] with
      | ' ' | '\t' | '\r' ->
        t.pos <- t.pos + 1;
        skip_ws t
      | '\n' ->
        t.pos <- t.pos + 1;
        t.line <- t.line + 1;
        skip_ws t
      | '#' | ';' ->
        skip_line t;
        skip_ws t
      | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
        skip_line t;
        skip_ws t
      | _ -> ()

  and skip_line t =
    while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
      t.pos <- t.pos + 1
    done

  let read_while t pred =
    let start = t.pos in
    while t.pos < String.length t.src && pred t.src.[t.pos] do
      t.pos <- t.pos + 1
    done;
    String.sub t.src start (t.pos - start)

  (* [digits] carries its sign, so [min_int] lexes; a literal outside the
     native int range is a lexical error, not an [int_of_string] crash. *)
  let int_literal t digits =
    match int_of_string_opt digits with
    | Some n -> INT n
    | None ->
      raise (Error (Fmt.str "integer literal %s out of range" digits, t.line))

  let scan t : token =
    skip_ws t;
    if t.pos >= String.length t.src then EOF
    else
      let c = t.src.[t.pos] in
      let two =
        if t.pos + 1 < String.length t.src then
          String.sub t.src t.pos 2
        else ""
      in
      if is_ident_start c then IDENT (read_while t is_ident_char)
      else if is_digit c then
        int_literal t (read_while t is_digit)
      else
        match two with
        | "->" ->
          t.pos <- t.pos + 2;
          ARROW
        | "==" | "!=" | "<=" | ">=" | "&&" | "||" ->
          t.pos <- t.pos + 2;
          OP two
        | _ -> (
          t.pos <- t.pos + 1;
          match c with
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '{' -> LBRACE
          | '}' -> RBRACE
          | '[' -> LBRACK
          | ']' -> RBRACK
          | ',' -> COMMA
          | ':' -> COLON
          | '=' -> EQUAL
          | '+' | '*' | '/' | '<' | '>' -> OP (String.make 1 c)
          | '-' ->
            (* '-' followed by a digit with no space is a negative literal *)
            if t.pos < String.length t.src && is_digit t.src.[t.pos] then
              int_literal t ("-" ^ read_while t is_digit)
            else OP "-"
          | '@' ->
            skip_ws t;
            let word =
              read_while t (fun c ->
                  not (c = ' ' || c = '\t' || c = '\n' || c = '\r'))
            in
            if word = "" then raise (Error ("empty location after '@'", t.line));
            AT_LOC word
          | _ -> raise (Error (Fmt.str "unexpected character %C" c, t.line)))

  (* Tokens never span lines, so after [scan] (which first skips leading
     whitespace) [t.line] is the line the token started on. *)
  let next t : token * int =
    match t.peeked with
    | Some tl ->
      t.peeked <- None;
      tl
    | None ->
      let tok = scan t in
      (tok, t.line)

  let peek t : token =
    match t.peeked with
    | Some (tok, _) -> tok
    | None ->
      let tl = next t in
      t.peeked <- Some tl;
      fst tl

  (* Snapshot/restore for the rare two-token lookahead ("ret x" versus
     "ret" followed by a block label "x:"). *)
  type snapshot = { s_pos : int; s_line : int; s_peeked : (token * int) option }

  let save t = { s_pos = t.pos; s_line = t.line; s_peeked = t.peeked }

  let restore t s =
    t.pos <- s.s_pos;
    t.line <- s.s_line;
    t.peeked <- s.s_peeked

  let pp_token ppf = function
    | IDENT s -> Fmt.pf ppf "identifier %S" s
    | INT n -> Fmt.pf ppf "integer %d" n
    | AT_LOC s -> Fmt.pf ppf "location %S" s
    | LPAREN -> Fmt.string ppf "'('"
    | RPAREN -> Fmt.string ppf "')'"
    | LBRACE -> Fmt.string ppf "'{'"
    | RBRACE -> Fmt.string ppf "'}'"
    | LBRACK -> Fmt.string ppf "'['"
    | RBRACK -> Fmt.string ppf "']'"
    | COMMA -> Fmt.string ppf "','"
    | COLON -> Fmt.string ppf "':'"
    | ARROW -> Fmt.string ppf "'->'"
    | EQUAL -> Fmt.string ppf "'='"
    | OP s -> Fmt.pf ppf "operator %S" s
    | EOF -> Fmt.string ppf "end of input"
end

module Parser = struct
  (* Recursive-descent parser for the textual .nvmir format.

     Grammar sketch (comments with '#' or '//'; ';' also starts a comment
     to end of line so pretty-printed comments re-parse):

       program   := (struct | func)*
       struct    := "struct" ID "{" field ("," field)* "}"
       field     := ID ":" ty
       ty        := ("int" | "bool" | "ptr" ty | ID) ("[" INT "]")*
       func      := "func" ID "(" params ")" ("->" ty)? "{" block+ "}"
       block     := ID ":" instr* term
       instr     := ... (see [parse_instr]) ... ("@" FILE:LINE)?
       term      := "ret" operand? | "br" ID | "br" operand "," ID "," ID

     Instruction mnemonics match the pretty-printer so that
     [parse (Fmt.str "%a" Prog.pp prog)] round-trips. *)

  exception Parse_error of string * int

  let fail line fmt = Fmt.kstr (fun m -> raise (Parse_error (m, line))) fmt

  type st = { lx : Lexer.t; default_file : string }

  let next st = Lexer.next st.lx
  let peek st = Lexer.peek st.lx

  let expect st tok what =
    let got, line = next st in
    if got <> tok then
      fail line "expected %s, got %a" what Lexer.pp_token got

  let expect_ident st what =
    match next st with
    | Lexer.IDENT s, _ -> s
    | got, line -> fail line "expected %s, got %a" what Lexer.pp_token got

  let expect_int st what =
    match next st with
    | Lexer.INT n, _ -> n
    | got, line -> fail line "expected %s, got %a" what Lexer.pp_token got

  let keywords =
    [
      "store"; "load"; "alloc"; "addr"; "crc"; "crc_check"; "flush"; "fence";
      "persist"; "tx_begin";
      "tx_end"; "tx_add"; "epoch_begin"; "epoch_end"; "strand_begin";
      "strand_end"; "call"; "ret"; "br"; "func"; "struct"; "ptr"; "int"; "bool";
      "pmem"; "vmem"; "exact"; "object"; "bytes"; "null"; "true"; "false";
    ]

  let is_keyword s = List.mem s keywords

  let rec parse_ty st : Ty.t =
    let base =
      match next st with
      | Lexer.IDENT "int", _ -> Ty.Int
      | Lexer.IDENT "bool", _ -> Ty.Bool
      | Lexer.IDENT "ptr", _ -> Ty.Ptr (parse_ty st)
      | Lexer.IDENT name, line ->
        if is_keyword name then fail line "keyword %s is not a type name" name;
        Ty.Named name
      | got, line -> fail line "expected a type, got %a" Lexer.pp_token got
    in
    parse_array_suffix st base

  and parse_array_suffix st base =
    match peek st with
    | Lexer.LBRACK ->
      ignore (next st);
      let n = expect_int st "array length" in
      expect st Lexer.RBRACK "']'";
      parse_array_suffix st (Ty.Array (base, n))
    | _ -> base

  let parse_operand st : Operand.t =
    match next st with
    | Lexer.INT n, _ -> Operand.Const n
    | Lexer.IDENT "null", _ -> Operand.Null
    | Lexer.IDENT "true", _ -> Operand.Bool_const true
    | Lexer.IDENT "false", _ -> Operand.Bool_const false
    | Lexer.IDENT name, _ -> Operand.Var name
    | got, line -> fail line "expected an operand, got %a" Lexer.pp_token got

  (* A place: base variable followed by ->field and [index] accesses. *)
  let parse_place_from st base =
    let rec accesses acc =
      match peek st with
      | Lexer.ARROW ->
        ignore (next st);
        let f = expect_ident st "field name" in
        accesses (Place.Field f :: acc)
      | Lexer.LBRACK ->
        ignore (next st);
        let op = parse_operand st in
        expect st Lexer.RBRACK "']'";
        accesses (Place.Index op :: acc)
      | _ -> List.rev acc
    in
    Place.make base (accesses [])

  let parse_place st =
    let base = expect_ident st "place base variable" in
    parse_place_from st base

  let parse_extent st : Instr.extent =
    match next st with
    | Lexer.IDENT "exact", _ -> Instr.Exact
    | Lexer.IDENT "object", _ -> Instr.Object
    | Lexer.IDENT "bytes", _ ->
      expect st Lexer.LPAREN "'('";
      let n = expect_int st "byte count" in
      expect st Lexer.RPAREN "')'";
      Instr.Bytes n
    | got, line ->
      fail line "expected extent (exact|object|bytes), got %a" Lexer.pp_token got

  (* Optional trailing "@ file:line" annotation. *)
  let parse_loc st : Loc.t =
    match peek st with
    | Lexer.AT_LOC s -> (
      ignore (next st);
      try Loc.of_string s
      with Invalid_argument m -> raise (Parse_error (m, 0)))
    | _ -> Loc.none

  let parse_call_args st =
    expect st Lexer.LPAREN "'('";
    if peek st = Lexer.RPAREN then (
      ignore (next st);
      [])
    else
      let rec more acc =
        let op = parse_operand st in
        match next st with
        | Lexer.COMMA, _ -> more (op :: acc)
        | Lexer.RPAREN, _ -> List.rev (op :: acc)
        | got, line -> fail line "expected ',' or ')', got %a" Lexer.pp_token got
      in
      more []

  (* What follows "x = ...". *)
  let parse_rhs st dst : Instr.kind =
    match peek st with
    | Lexer.IDENT "load" ->
      ignore (next st);
      Instr.Load { dst; src = parse_place st }
    | Lexer.IDENT "alloc" ->
      ignore (next st);
      let space =
        match next st with
        | Lexer.IDENT "pmem", _ -> Instr.Persistent
        | Lexer.IDENT "vmem", _ -> Instr.Volatile
        | got, line -> fail line "expected pmem|vmem, got %a" Lexer.pp_token got
      in
      Instr.Alloc { dst; ty = parse_ty st; space }
    | Lexer.IDENT "addr" ->
      ignore (next st);
      Instr.Addr_of { dst; src = parse_place st }
    | Lexer.IDENT "crc" ->
      ignore (next st);
      let extent = parse_extent st in
      Instr.Crc_of { dst; target = parse_place st; extent }
    | Lexer.IDENT "crc_check" ->
      ignore (next st);
      let extent = parse_extent st in
      let target = parse_place st in
      expect st Lexer.COMMA "','";
      Instr.Crc_check { dst; target; extent; crc = parse_place st }
    | Lexer.IDENT "call" ->
      ignore (next st);
      let callee = expect_ident st "callee name" in
      Instr.Call { dst = Some dst; callee; args = parse_call_args st }
    | _ -> (
      let lhs = parse_operand st in
      match peek st with
      | Lexer.OP sym -> (
        ignore (next st);
        match Instr.binop_of_string sym with
        | Some op -> Instr.Binop { dst; op; lhs; rhs = parse_operand st }
        | None -> fail 0 "unknown binary operator %s" sym)
      | _ -> Instr.Assign { dst; src = lhs })

  (* One instruction or terminator. Returns [`Instr] for ordinary
     instructions, [`Term] when a block terminator was parsed. *)
  type item = Instr_item of Instr.t | Term_item of Func.terminator * Loc.t

  let parse_item st : item =
    let kind_to_item kind =
      let loc = parse_loc st in
      Instr_item (Instr.make ~loc kind)
    in
    match next st with
    | Lexer.IDENT "store", _ ->
      let dst = parse_place st in
      expect st Lexer.COMMA "','";
      let src = parse_operand st in
      kind_to_item (Instr.Store { dst; src })
    | Lexer.IDENT "flush", _ ->
      let extent = parse_extent st in
      kind_to_item (Instr.Flush { target = parse_place st; extent })
    | Lexer.IDENT "persist", _ ->
      let extent = parse_extent st in
      kind_to_item (Instr.Persist { target = parse_place st; extent })
    | Lexer.IDENT "tx_add", _ ->
      let extent = parse_extent st in
      kind_to_item (Instr.Tx_add { target = parse_place st; extent })
    | Lexer.IDENT "fence", _ -> kind_to_item Instr.Fence
    | Lexer.IDENT "tx_begin", _ -> kind_to_item Instr.Tx_begin
    | Lexer.IDENT "tx_end", _ -> kind_to_item Instr.Tx_end
    | Lexer.IDENT "epoch_begin", _ -> kind_to_item Instr.Epoch_begin
    | Lexer.IDENT "epoch_end", _ -> kind_to_item Instr.Epoch_end
    | Lexer.IDENT "strand_begin", _ ->
      kind_to_item (Instr.Strand_begin (expect_int st "strand id"))
    | Lexer.IDENT "strand_end", _ ->
      kind_to_item (Instr.Strand_end (expect_int st "strand id"))
    | Lexer.IDENT "call", _ ->
      let callee = expect_ident st "callee name" in
      kind_to_item (Instr.Call { dst = None; callee; args = parse_call_args st })
    | Lexer.IDENT "ret", _ -> (
      match peek st with
      | Lexer.INT _ | Lexer.IDENT "null" | Lexer.IDENT "true"
      | Lexer.IDENT "false" ->
        let v = parse_operand st in
        Term_item (Func.Ret (Some v), parse_loc st)
      | Lexer.IDENT name when not (is_keyword name) ->
        (* "ret x" returns x — unless "x :" starts the next block. Try
           consuming the identifier; if ':' follows, rewind. *)
        let snap = Lexer.save st.lx in
        ignore (next st);
        if peek st = Lexer.COLON then (
          Lexer.restore st.lx snap;
          Term_item (Func.Ret None, Loc.none))
        else Term_item (Func.Ret (Some (Operand.Var name)), parse_loc st)
      | _ -> Term_item (Func.Ret None, parse_loc st))
    | Lexer.IDENT "br", _ -> (
      let first, line = next st in
      match (first, peek st) with
      | Lexer.IDENT lbl, tok when tok <> Lexer.COMMA ->
        Term_item (Func.Br lbl, parse_loc st)
      | Lexer.IDENT _, Lexer.COMMA | Lexer.INT _, _ -> (
        let cond =
          match first with
          | Lexer.IDENT v -> Operand.Var v
          | Lexer.INT n -> Operand.Const n
          | _ -> fail line "bad branch condition"
        in
        ignore (next st);
        (* the comma *)
        let then_lbl = expect_ident st "then label" in
        expect st Lexer.COMMA "','";
        let else_lbl = expect_ident st "else label" in
        Term_item (Func.Cond_br { cond; then_lbl; else_lbl }, parse_loc st))
      | got, _ -> fail line "expected branch target, got %a" Lexer.pp_token got)
    | Lexer.IDENT dst, line ->
      if is_keyword dst then fail line "unexpected keyword %s" dst;
      expect st Lexer.EQUAL "'='";
      kind_to_item (parse_rhs st dst)
    | got, line -> fail line "expected an instruction, got %a" Lexer.pp_token got

  let parse_block st first_label : Func.block =
    let rec items acc =
      match parse_item st with
      | Instr_item i -> items (i :: acc)
      | Term_item (term, term_loc) ->
        { Func.label = first_label; instrs = List.rev acc; term; term_loc }
    in
    items []

  let parse_func st : Func.t =
    let fname = expect_ident st "function name" in
    expect st Lexer.LPAREN "'('";
    let params =
      if peek st = Lexer.RPAREN then (
        ignore (next st);
        [])
      else
        let rec more acc =
          let p = expect_ident st "parameter name" in
          expect st Lexer.COLON "':'";
          let ty = parse_ty st in
          match next st with
          | Lexer.COMMA, _ -> more ((p, ty) :: acc)
          | Lexer.RPAREN, _ -> List.rev ((p, ty) :: acc)
          | got, line ->
            fail line "expected ',' or ')', got %a" Lexer.pp_token got
        in
        more []
    in
    let ret_ty =
      match peek st with
      | Lexer.ARROW ->
        ignore (next st);
        Some (parse_ty st)
      | _ -> None
    in
    expect st Lexer.LBRACE "'{'";
    let rec blocks acc =
      match next st with
      | Lexer.RBRACE, _ -> List.rev acc
      | Lexer.IDENT label, _ ->
        expect st Lexer.COLON "':' after block label";
        blocks (parse_block st label :: acc)
      | got, line ->
        fail line "expected block label or '}', got %a" Lexer.pp_token got
    in
    let blocks = blocks [] in
    {
      Func.fname;
      params;
      ret_ty;
      blocks;
      floc = Loc.make ~file:st.default_file ~line:0;
    }

  let parse_struct st : Ty.struct_def =
    let sname = expect_ident st "struct name" in
    expect st Lexer.LBRACE "'{'";
    let rec fields acc =
      match next st with
      | Lexer.RBRACE, _ -> List.rev acc
      | Lexer.IDENT f, _ -> (
        expect st Lexer.COLON "':'";
        let ty = parse_ty st in
        match peek st with
        | Lexer.COMMA ->
          ignore (next st);
          fields ((f, ty) :: acc)
        | _ -> fields ((f, ty) :: acc))
      | got, line ->
        fail line "expected field name or '}', got %a" Lexer.pp_token got
    in
    { Ty.sname; fields = fields [] }

  (* Parse a whole program from a string. [file] is used for diagnostics
     only; instruction locations come from their '@' annotations. *)
  let parse ?(file = "<string>") src : Prog.t =
    let st = { lx = Lexer.create src; default_file = file } in
    let prog = Prog.create () in
    let rec toplevel () =
      match next st with
      | Lexer.EOF, _ -> ()
      | Lexer.IDENT "struct", _ ->
        Prog.add_struct prog (parse_struct st);
        toplevel ()
      | Lexer.IDENT "func", _ ->
        Prog.add_func prog (parse_func st);
        toplevel ()
      | got, line ->
        fail line "expected 'struct' or 'func', got %a" Lexer.pp_token got
    in
    (try toplevel ()
     with Lexer.Error (m, line) -> raise (Parse_error (m, line)));
    prog

  let parse_file path : Prog.t =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    parse ~file:path src
end
