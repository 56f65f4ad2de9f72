(** Hand-written lexer for the SQL subset.

    Tokens cover exactly what {!Parser} needs: identifiers (optionally
    qualified at parse level), numeric and string literals, the keyword set
    of the SPJG dialect, comparison and arithmetic operators, punctuation.
    [--] starts a comment running to end of line. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string  (** uppercased keyword *)
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | SEMI
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | SLASH
  | EOF

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "GROUP"; "ORDER"; "BY";
    "ASC"; "DESC"; "SUM"; "COUNT"; "MIN"; "MAX"; "AVG"; "UPDATE"; "SET";
    "INSERT"; "INTO"; "ROWS"; "DELETE"; "LIKE"; "IN"; "DATE"; "BETWEEN";
    (* schema DDL *)
    "CREATE"; "TABLE"; "INT"; "FLOAT"; "CHAR"; "VARCHAR"; "SERIAL";
    "UNIFORM"; "ZIPF"; "NORMAL"; "REFERENCES";
  ]

exception Lex_error of string * int  (** message, position *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some '-' when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '-'
    ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  let up = String.uppercase_ascii s in
  if List.mem up keywords then KW up else IDENT s

let lex_number st =
  let start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match peek st with
    | Some '.'
      when st.pos + 1 < String.length st.src && is_digit st.src.[st.pos + 1] ->
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | _ -> false
  in
  let s = String.sub st.src start (st.pos - start) in
  if is_float then FLOAT (float_of_string s)
  else
    match int_of_string_opt s with
    | Some n -> INT n
    | None -> raise (Lex_error ("integer literal out of range", start))

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Lex_error ("unterminated string literal", st.pos))
    | Some '\'' ->
      advance st;
      (* doubled quote escapes a quote *)
      if peek st = Some '\'' then (
        Buffer.add_char buf '\'';
        advance st;
        go ())
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  STRING (Buffer.contents buf)

let next_token st =
  skip_ws st;
  match peek st with
  | None -> EOF
  | Some c when is_ident_start c -> lex_ident st
  | Some c when is_digit c -> lex_number st
  | Some '\'' -> lex_string st
  | Some c -> (
    advance st;
    match c with
    | '(' -> LPAREN
    | ')' -> RPAREN
    | ',' -> COMMA
    | '.' -> DOT
    | '*' -> STAR
    | ';' -> SEMI
    | '+' -> PLUS
    | '-' -> MINUS
    | '/' -> SLASH
    | '=' -> EQ
    | '<' -> (
      match peek st with
      | Some '=' ->
        advance st;
        LE
      | Some '>' ->
        advance st;
        NEQ
      | _ -> LT)
    | '>' -> (
      match peek st with
      | Some '=' ->
        advance st;
        GE
      | _ -> GT)
    | '!' -> (
      match peek st with
      | Some '=' ->
        advance st;
        NEQ
      | _ -> raise (Lex_error ("unexpected '!'", st.pos)))
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, st.pos)))

(** Tokenize a whole input string. *)
let tokenize src =
  let st = { src; pos = 0 } in
  let rec go acc =
    match next_token st with
    | EOF -> List.rev (EOF :: acc)
    | t -> go (t :: acc)
  in
  go []

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "ident(%s)" s
  | INT i -> Fmt.pf ppf "int(%d)" i
  | FLOAT f -> Fmt.pf ppf "float(%g)" f
  | STRING s -> Fmt.pf ppf "string(%s)" s
  | KW k -> Fmt.pf ppf "kw(%s)" k
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | COMMA -> Fmt.string ppf ","
  | DOT -> Fmt.string ppf "."
  | STAR -> Fmt.string ppf "*"
  | SEMI -> Fmt.string ppf ";"
  | EQ -> Fmt.string ppf "="
  | NEQ -> Fmt.string ppf "<>"
  | LT -> Fmt.string ppf "<"
  | LE -> Fmt.string ppf "<="
  | GT -> Fmt.string ppf ">"
  | GE -> Fmt.string ppf ">="
  | PLUS -> Fmt.string ppf "+"
  | MINUS -> Fmt.string ppf "-"
  | SLASH -> Fmt.string ppf "/"
  | EOF -> Fmt.string ppf "<eof>"
