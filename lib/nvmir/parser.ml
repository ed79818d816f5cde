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

(* Tokens are tested by pattern match; [line st] is the line of the
   token [next] last returned. *)
let next st = Lexer.next st.lx
let line st = Lexer.line st.lx
let peek st = Lexer.peek st.lx

let unexpected st what got =
  fail (line st) "expected %s, got %a" what Lexer.pp_token got

(* [tok] is one of the constant punctuation tokens. *)
let expect st (tok : Lexer.token) what =
  match (next st, tok) with
  | Lexer.LPAREN, Lexer.LPAREN
  | Lexer.RPAREN, Lexer.RPAREN
  | Lexer.LBRACE, Lexer.LBRACE
  | Lexer.RBRACE, Lexer.RBRACE
  | Lexer.LBRACK, Lexer.LBRACK
  | Lexer.RBRACK, Lexer.RBRACK
  | Lexer.COMMA, Lexer.COMMA
  | Lexer.COLON, Lexer.COLON
  | Lexer.ARROW, Lexer.ARROW
  | Lexer.EQUAL, Lexer.EQUAL ->
    ()
  | got, _ -> unexpected st what got

let expect_ident st what =
  match next st with
  | Lexer.IDENT s -> s
  | got -> unexpected st what got

let expect_int st what =
  match next st with
  | Lexer.INT n -> n
  | got -> unexpected st what got

let is_keyword = function
  | "store" | "load" | "alloc" | "addr" | "crc" | "crc_check" | "flush"
  | "fence" | "persist" | "tx_begin" | "tx_end" | "tx_add" | "epoch_begin"
  | "epoch_end" | "strand_begin" | "strand_end" | "call" | "ret" | "br"
  | "func" | "struct" | "ptr" | "int" | "bool" | "pmem" | "vmem" | "exact"
  | "object" | "bytes" | "null" | "true" | "false" ->
    true
  | _ -> false

let rec parse_ty st : Ty.t =
  let base =
    match next st with
    | Lexer.IDENT "int" -> Ty.Int
    | Lexer.IDENT "bool" -> Ty.Bool
    | Lexer.IDENT "ptr" -> Ty.Ptr (parse_ty st)
    | Lexer.IDENT name ->
      if is_keyword name then
        fail (line st) "keyword %s is not a type name" name;
      Ty.Named name
    | got -> unexpected st "a type" got
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
  | Lexer.INT n -> Operand.Const n
  | Lexer.IDENT "null" -> Operand.Null
  | Lexer.IDENT "true" -> Operand.Bool_const true
  | Lexer.IDENT "false" -> Operand.Bool_const false
  | Lexer.IDENT name -> Operand.Var name
  | got -> unexpected st "an operand" got

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
  | Lexer.IDENT "exact" -> Instr.Exact
  | Lexer.IDENT "object" -> Instr.Object
  | Lexer.IDENT "bytes" ->
    expect st Lexer.LPAREN "'('";
    let n = expect_int st "byte count" in
    expect st Lexer.RPAREN "')'";
    Instr.Bytes n
  | got -> unexpected st "extent (exact|object|bytes)" got

(* Optional trailing "@ file:line" annotation. The lexer reads the
   plain decimal spelling; any other goes through [Loc.of_string], and a
   malformed one is reported at the annotation's line. *)
let parse_loc st : Loc.t =
  match peek st with
  | Lexer.AT_LOC l ->
    ignore (next st);
    l
  | Lexer.AT_WORD s -> (
    ignore (next st);
    try Loc.of_string s with Invalid_argument m -> fail (line st) "%s" m)
  | _ -> Loc.none

let parse_call_args st =
  expect st Lexer.LPAREN "'('";
  match peek st with
  | Lexer.RPAREN ->
    ignore (next st);
    []
  | _ ->
    let rec more acc =
      let op = parse_operand st in
      match next st with
      | Lexer.COMMA -> more (op :: acc)
      | Lexer.RPAREN -> List.rev (op :: acc)
      | got -> unexpected st "',' or ')'" got
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
      | Lexer.IDENT "pmem" -> Instr.Persistent
      | Lexer.IDENT "vmem" -> Instr.Volatile
      | got -> unexpected st "pmem|vmem" got
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
    | Lexer.OP op ->
      ignore (next st);
      Instr.Binop { dst; op; lhs; rhs = parse_operand st }
    | _ -> Instr.Assign { dst; src = lhs })

(* One instruction or terminator. Returns [`Instr] for ordinary
   instructions, [`Term] when a block terminator was parsed. *)
type item = Instr_item of Instr.t | Term_item of Func.terminator * Loc.t

(* "br cond, then, else" after its condition; the token that follows the
   condition is taken as the comma. *)
let parse_cond_br st cond =
  ignore (next st);
  let then_lbl = expect_ident st "then label" in
  expect st Lexer.COMMA "','";
  let else_lbl = expect_ident st "else label" in
  Term_item (Func.Cond_br { cond; then_lbl; else_lbl }, parse_loc st)

let parse_item st : item =
  let kind_to_item kind =
    let loc = parse_loc st in
    Instr_item (Instr.make ~loc kind)
  in
  match next st with
  | Lexer.IDENT "store" ->
    let dst = parse_place st in
    expect st Lexer.COMMA "','";
    let src = parse_operand st in
    kind_to_item (Instr.Store { dst; src })
  | Lexer.IDENT "flush" ->
    let extent = parse_extent st in
    kind_to_item (Instr.Flush { target = parse_place st; extent })
  | Lexer.IDENT "persist" ->
    let extent = parse_extent st in
    kind_to_item (Instr.Persist { target = parse_place st; extent })
  | Lexer.IDENT "tx_add" ->
    let extent = parse_extent st in
    kind_to_item (Instr.Tx_add { target = parse_place st; extent })
  | Lexer.IDENT "fence" -> kind_to_item Instr.Fence
  | Lexer.IDENT "tx_begin" -> kind_to_item Instr.Tx_begin
  | Lexer.IDENT "tx_end" -> kind_to_item Instr.Tx_end
  | Lexer.IDENT "epoch_begin" -> kind_to_item Instr.Epoch_begin
  | Lexer.IDENT "epoch_end" -> kind_to_item Instr.Epoch_end
  | Lexer.IDENT "strand_begin" ->
    kind_to_item (Instr.Strand_begin (expect_int st "strand id"))
  | Lexer.IDENT "strand_end" ->
    kind_to_item (Instr.Strand_end (expect_int st "strand id"))
  | Lexer.IDENT "call" ->
    let callee = expect_ident st "callee name" in
    kind_to_item (Instr.Call { dst = None; callee; args = parse_call_args st })
  | Lexer.IDENT "ret" -> (
    match peek st with
    | Lexer.INT _ | Lexer.IDENT ("null" | "true" | "false") ->
      let v = parse_operand st in
      Term_item (Func.Ret (Some v), parse_loc st)
    | Lexer.IDENT name when not (is_keyword name) -> (
      (* "ret x" returns x — unless "x :" starts the next block. Try
         consuming the identifier; if ':' follows, rewind. *)
      let snap = Lexer.save st.lx in
      ignore (next st);
      match peek st with
      | Lexer.COLON ->
        Lexer.restore st.lx snap;
        Term_item (Func.Ret None, Loc.none)
      | _ -> Term_item (Func.Ret (Some (Operand.Var name)), parse_loc st))
    | _ -> Term_item (Func.Ret None, parse_loc st))
  | Lexer.IDENT "br" -> (
    let first = next st in
    let line = line st in
    match (first, peek st) with
    | Lexer.IDENT v, Lexer.COMMA -> parse_cond_br st (Operand.Var v)
    | Lexer.IDENT lbl, _ -> Term_item (Func.Br lbl, parse_loc st)
    | Lexer.INT n, _ -> parse_cond_br st (Operand.Const n)
    | got, _ -> fail line "expected branch target, got %a" Lexer.pp_token got)
  | Lexer.IDENT dst ->
    if is_keyword dst then fail (line st) "unexpected keyword %s" dst;
    expect st Lexer.EQUAL "'='";
    kind_to_item (parse_rhs st dst)
  | got -> unexpected st "an instruction" got

let parse_block st first_label : Func.block =
  let rec items acc =
    match parse_item st with
    | Instr_item i -> items (i :: acc)
    | Term_item (term, term_loc) ->
      { Func.label = first_label; instrs = List.rev acc; term; term_loc }
  in
  items []

(* A function, located at its [func] keyword (the token just read), and
   the line of its name. *)
let parse_func st : Func.t * int =
  let func_line = line st in
  let fname = expect_ident st "function name" in
  let name_line = line st in
  expect st Lexer.LPAREN "'('";
  let params =
    match peek st with
    | Lexer.RPAREN ->
      ignore (next st);
      []
    | _ ->
      let rec more acc =
        let p = expect_ident st "parameter name" in
        expect st Lexer.COLON "':'";
        let ty = parse_ty st in
        match next st with
        | Lexer.COMMA -> more ((p, ty) :: acc)
        | Lexer.RPAREN -> List.rev ((p, ty) :: acc)
        | got -> unexpected st "',' or ')'" got
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
    | Lexer.RBRACE -> List.rev acc
    | Lexer.IDENT label ->
      expect st Lexer.COLON "':' after block label";
      blocks (parse_block st label :: acc)
    | got -> unexpected st "block label or '}'" got
  in
  let blocks = blocks [] in
  ( {
      Func.fname;
      params;
      ret_ty;
      blocks;
      floc = Loc.make ~file:st.default_file ~line:func_line;
    },
    name_line )

(* A struct definition and the line of its name. *)
let parse_struct st : Ty.struct_def * int =
  let sname = expect_ident st "struct name" in
  let name_line = line st in
  expect st Lexer.LBRACE "'{'";
  let rec fields acc =
    match next st with
    | Lexer.RBRACE -> List.rev acc
    | Lexer.IDENT f -> (
      expect st Lexer.COLON "':'";
      let ty = parse_ty st in
      match peek st with
      | Lexer.COMMA ->
        ignore (next st);
        fields ((f, ty) :: acc)
      | _ -> fields ((f, ty) :: acc))
    | got -> unexpected st "field name or '}'" got
  in
  ({ Ty.sname; fields = fields [] }, name_line)

(* Parse a whole program from a string. [file] is used for diagnostics
   only; instruction locations come from their '@' annotations. A
   repeated struct or function name is reported at the line of the
   repeat, once its definition has been read. *)
let parse ?(file = "<string>") src : Prog.t =
  let st = { lx = Lexer.create src; default_file = file } in
  let prog = Prog.create () in
  let rec toplevel () =
    match next st with
    | Lexer.EOF -> ()
    | Lexer.IDENT "struct" ->
      let sd, line = parse_struct st in
      if Ty.env_find (Prog.tenv prog) sd.Ty.sname <> None then
        fail line "duplicate struct %s" sd.Ty.sname;
      Prog.add_struct prog sd;
      toplevel ()
    | Lexer.IDENT "func" ->
      let f, line = parse_func st in
      if Prog.find_func prog f.Func.fname <> None then
        fail line "duplicate function %s" f.Func.fname;
      Prog.add_func prog f;
      toplevel ()
    | got -> unexpected st "'struct' or 'func'" got
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
