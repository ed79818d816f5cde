(* Hand-rolled lexer for the textual .nvmir format.

   Comments run from '#', ';' or "//" to end of line. The '@' sign
   introduces a source-location annotation and greedily consumes the
   following non-whitespace word (e.g. "@ btree_map.c:201"), which keeps
   file names with dots and slashes out of the main token grammar.

   Every token class is scanned by a loop over the source bytes: no
   substring is taken to classify a token, and only identifiers, the
   files of location annotations and rare spellings allocate. *)

type token =
  | IDENT of string
  | INT of int
  | AT_LOC of Loc.t (* "@ file:line" with a plain decimal line *)
  | AT_WORD of string (* any other '@' word, checked by [Loc.of_string] *)
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
  | OP of Instr.binop (* + - * / == != < <= > >= && || *)
  | EOF

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable tok_line : int; (* line of the token [next] last returned *)
  mutable has_peeked : bool;
  mutable peeked : token; (* meaningful when [has_peeked] *)
  mutable peeked_line : int;
  mutable last_file : string; (* the previous annotation's file *)
}

exception Error of string * int (* message, line *)

let create src =
  {
    src;
    len = String.length src;
    pos = 0;
    line = 1;
    tok_line = 1;
    has_peeked = false;
    peeked = EOF;
    peeked_line = 1;
    last_file = "";
  }

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'

(* The scanning loops are top-level functions of the source, its
   length and a position, so no closure is built per token. *)
let rec to_eol src len pos =
  if pos < len && String.unsafe_get src pos <> '\n' then
    to_eol src len (pos + 1)
  else pos

let rec skip_from t src len pos =
  if pos >= len then pos
  else
    match String.unsafe_get src pos with
    | ' ' | '\t' | '\r' -> skip_from t src len (pos + 1)
    | '\n' ->
      t.line <- t.line + 1;
      skip_from t src len (pos + 1)
    | '#' | ';' -> skip_from t src len (to_eol src len pos)
    | '/' when pos + 1 < len && String.unsafe_get src (pos + 1) = '/' ->
      skip_from t src len (to_eol src len pos)
    | _ -> pos

let skip_ws t = t.pos <- skip_from t t.src t.len t.pos

let rec span_ident src len i =
  if i < len && is_ident_char (String.unsafe_get src i) then
    span_ident src len (i + 1)
  else i

let rec span_digits src len i =
  if i < len && is_digit (String.unsafe_get src i) then
    span_digits src len (i + 1)
  else i

(* The decimal value of the digits [src.[i..hi)], at most 18 of them,
   so it cannot overflow. *)
let rec decimal src i hi n =
  if i >= hi then n
  else
    decimal src (i + 1) hi
      ((n * 10) + (Char.code (String.unsafe_get src i) - 48))

(* The digits of an integer literal span [lo, hi), after a '-' when
   [neg]. Up to 18 digits cannot overflow; longer spellings go through
   [int_of_string_opt], so [min_int] lexes and a literal outside the
   native int range is a lexical error, not an [int_of_string] crash. *)
let int_literal t ~neg lo hi =
  if hi - lo <= 18 then
    let n = decimal t.src lo hi 0 in
    INT (if neg then -n else n)
  else
    let digits = String.sub t.src lo (hi - lo) in
    let digits = if neg then "-" ^ digits else digits in
    match int_of_string_opt digits with
    | Some n -> INT n
    | None ->
      raise (Error (Fmt.str "integer literal %s out of range" digits, t.line))

let is_word_char = function ' ' | '\t' | '\n' | '\r' -> false | _ -> true

(* The end of the word starting at [i] and the position of its last
   ':' (-1 when it has none). *)
let rec span_word src len i colon =
  if i < len && is_word_char (String.unsafe_get src i) then
    span_word src len (i + 1)
      (if String.unsafe_get src i = ':' then i else colon)
  else (i, colon)

let rec same_bytes a src off i n =
  i >= n
  || String.unsafe_get a i = String.unsafe_get src (off + i)
     && same_bytes a src off (i + 1) n

(* The word after '@', up to whitespace. When it reads [file:N] with
   [N] a plain decimal (no sign, no leading zero, at most 18 digits),
   it becomes a location here, reusing the previous annotation's file
   string when the bytes match; any other word is handed to the parser,
   which applies [Loc.of_string] to it. *)
let at_loc t =
  let src = t.src and start = t.pos in
  let stop, colon = span_word src t.len start (-1) in
  t.pos <- stop;
  if stop = start then raise (Error ("empty location after '@'", t.line));
  let lo = colon + 1 in
  let plain =
    colon >= 0 && lo < stop
    && span_digits src stop lo = stop
    && stop - lo <= 18
    && (String.unsafe_get src lo <> '0' || stop - lo = 1)
  in
  if not plain then AT_WORD (String.sub src start (stop - start))
  else
    let flen = colon - start in
    let file =
      if
        String.length t.last_file = flen
        && same_bytes t.last_file src start 0 flen
      then t.last_file
      else begin
        t.last_file <- String.sub src start flen;
        t.last_file
      end
    in
    AT_LOC (Loc.make ~file ~line:(decimal src lo stop 0))

let op2 t pos op =
  t.pos <- pos + 2;
  OP op

let scan t : token =
  skip_ws t;
  let src = t.src and len = t.len and pos = t.pos in
  if pos >= len then EOF
  else
    let c = String.unsafe_get src pos in
    let c2 =
      if pos + 1 < len then String.unsafe_get src (pos + 1) else '\000'
    in
    match (c, c2) with
    | ('a' .. 'z' | 'A' .. 'Z' | '_'), _ ->
      let stop = span_ident src len (pos + 1) in
      t.pos <- stop;
      IDENT (String.sub src pos (stop - pos))
    | '0' .. '9', _ ->
      let stop = span_digits src len (pos + 1) in
      t.pos <- stop;
      int_literal t ~neg:false pos stop
    | '-', '>' ->
      t.pos <- pos + 2;
      ARROW
    | '=', '=' -> op2 t pos Instr.Eq
    | '!', '=' -> op2 t pos Instr.Ne
    | '<', '=' -> op2 t pos Instr.Le
    | '>', '=' -> op2 t pos Instr.Ge
    | '&', '&' -> op2 t pos Instr.And
    | '|', '|' -> op2 t pos Instr.Or
    | '-', '0' .. '9' ->
      (* '-' followed by a digit with no space is a negative literal *)
      let stop = span_digits src len (pos + 1) in
      t.pos <- stop;
      int_literal t ~neg:true (pos + 1) stop
    | _ -> (
      t.pos <- pos + 1;
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
      | '+' -> OP Instr.Add
      | '-' -> OP Instr.Sub
      | '*' -> OP Instr.Mul
      | '/' -> OP Instr.Div
      | '<' -> OP Instr.Lt
      | '>' -> OP Instr.Gt
      | '@' ->
        (* the location is on the annotation's line or missing *)
        let line = t.line in
        skip_ws t;
        if t.line <> line then
          raise (Error ("empty location after '@'", line));
        at_loc t
      | _ -> raise (Error (Fmt.str "unexpected character %C" c, t.line)))

(* Tokens never span lines (an '@' annotation is read at its word), so
   after [scan], which first skips leading whitespace, [t.line] is the
   line the token started on. *)
let next t : token =
  if t.has_peeked then begin
    t.has_peeked <- false;
    t.tok_line <- t.peeked_line;
    t.peeked
  end
  else begin
    let tok = scan t in
    t.tok_line <- t.line;
    tok
  end

(* The line of the token [next] last returned. *)
let line t = t.tok_line

let peek t : token =
  if not t.has_peeked then begin
    t.peeked <- scan t;
    t.peeked_line <- t.line;
    t.has_peeked <- true
  end;
  t.peeked

(* Snapshot/restore for the rare two-token lookahead ("ret x" versus
   "ret" followed by a block label "x:"). *)
type snapshot = {
  s_pos : int;
  s_line : int;
  s_has_peeked : bool;
  s_peeked : token;
  s_peeked_line : int;
}

let save t =
  {
    s_pos = t.pos;
    s_line = t.line;
    s_has_peeked = t.has_peeked;
    s_peeked = t.peeked;
    s_peeked_line = t.peeked_line;
  }

let restore t s =
  t.pos <- s.s_pos;
  t.line <- s.s_line;
  t.has_peeked <- s.s_has_peeked;
  t.peeked <- s.s_peeked;
  t.peeked_line <- s.s_peeked_line

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | AT_LOC l -> Fmt.pf ppf "location %S" (Loc.to_string l)
  | AT_WORD s -> Fmt.pf ppf "location %S" s
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
  | OP op -> Fmt.pf ppf "operator %S" (Instr.string_of_binop op)
  | EOF -> Fmt.string ppf "end of input"
