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
