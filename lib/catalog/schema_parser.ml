(** Parser for schema-definition scripts: catalogs described in text.

    Grammar (statements separated by [;]):
    {v
    CREATE TABLE name ROWS n (
      col INT SERIAL,
      col INT UNIFORM(lo, hi),
      col FLOAT NORMAL(mean, stddev),
      col INT ZIPF(n, skew),
      col VARCHAR(40),                       -- default distribution
      col INT REFERENCES other(key)          -- FK: uniform over the parent
    );
    v}
    [REFERENCES] both sets the column's distribution (uniform over the
    parent's serial key range) and records an edge in the foreign-key join
    graph returned alongside the catalog — which is what the random
    workload generator walks. *)

open Relax_sql.Types
module Lexer = Relax_sql.Lexer

exception Schema_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Schema_error s)) fmt

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect st tok =
  if peek st = tok then advance st
  else
    fail "expected %s, found %s"
      (Fmt.str "%a" Lexer.pp_token tok)
      (Fmt.str "%a" Lexer.pp_token (peek st))

let expect_kw st kw =
  match peek st with
  | Lexer.KW k when k = kw -> advance st
  | t -> fail "expected %s, found %a" kw Lexer.pp_token t

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> fail "expected identifier, found %a" Lexer.pp_token t

let number st =
  match peek st with
  | Lexer.INT i ->
    advance st;
    float_of_int i
  | Lexer.FLOAT f ->
    advance st;
    f
  | Lexer.MINUS -> (
    advance st;
    match peek st with
    | Lexer.INT i ->
      advance st;
      float_of_int (-i)
    | Lexer.FLOAT f ->
      advance st;
      -.f
    | t -> fail "expected number, found %a" Lexer.pp_token t)
  | t -> fail "expected number, found %a" Lexer.pp_token t

let int_arg st = int_of_float (number st)

(* a pending column: the FK targets resolve after all tables are parsed *)
type pending_col = {
  pc_name : string;
  pc_type : data_type;
  pc_dist : Distribution.t option;
  pc_ref : (string * string) option;  (** REFERENCES table(column) *)
}

type pending_table = {
  pt_name : string;
  pt_rows : int;
  pt_cols : pending_col list;
}

let parse_type st : data_type =
  match peek st with
  | Lexer.KW "INT" ->
    advance st;
    Int
  | Lexer.KW "FLOAT" ->
    advance st;
    Float
  | Lexer.KW "DATE" ->
    advance st;
    Date
  | Lexer.KW "CHAR" ->
    advance st;
    expect st Lexer.LPAREN;
    let n = int_arg st in
    expect st Lexer.RPAREN;
    Char n
  | Lexer.KW "VARCHAR" ->
    advance st;
    expect st Lexer.LPAREN;
    let n = int_arg st in
    expect st Lexer.RPAREN;
    Varchar n
  | t -> fail "expected a column type, found %a" Lexer.pp_token t

let parse_dist st : Distribution.t option * (string * string) option =
  match peek st with
  | Lexer.KW "SERIAL" ->
    advance st;
    (Some Distribution.Serial, None)
  | Lexer.KW "UNIFORM" ->
    advance st;
    expect st Lexer.LPAREN;
    let lo = number st in
    expect st Lexer.COMMA;
    let hi = number st in
    expect st Lexer.RPAREN;
    (Some (Distribution.Uniform (lo, hi)), None)
  | Lexer.KW "ZIPF" ->
    advance st;
    expect st Lexer.LPAREN;
    let n = int_arg st in
    expect st Lexer.COMMA;
    let skew = number st in
    expect st Lexer.RPAREN;
    (Some (Distribution.Zipf { n; skew }), None)
  | Lexer.KW "NORMAL" ->
    advance st;
    expect st Lexer.LPAREN;
    let mean = number st in
    expect st Lexer.COMMA;
    let stddev = number st in
    expect st Lexer.RPAREN;
    (Some (Distribution.Normal { mean; stddev }), None)
  | Lexer.KW "REFERENCES" ->
    advance st;
    let t = ident st in
    expect st Lexer.LPAREN;
    let c = ident st in
    expect st Lexer.RPAREN;
    (None, Some (t, c))
  | _ -> (None, None)

let parse_column st : pending_col =
  let pc_name = ident st in
  let pc_type = parse_type st in
  let pc_dist, pc_ref = parse_dist st in
  { pc_name; pc_type; pc_dist; pc_ref }

let parse_table st : pending_table =
  expect_kw st "CREATE";
  expect_kw st "TABLE";
  let pt_name = ident st in
  expect_kw st "ROWS";
  let pt_rows = int_arg st in
  expect st Lexer.LPAREN;
  let rec cols acc =
    let c = parse_column st in
    if peek st = Lexer.COMMA then begin
      advance st;
      cols (c :: acc)
    end
    else List.rev (c :: acc)
  in
  let pt_cols = cols [] in
  expect st Lexer.RPAREN;
  (match peek st with Lexer.SEMI -> advance st | _ -> ());
  { pt_name; pt_rows; pt_cols }

(** Parse a schema script into a catalog plus its foreign-key join graph
    (usable as a {e generator schema} together with the catalog).
    @raise Schema_error on malformed input. *)
let parse ?(seed = 42) (src : string) :
    Catalog.t * (column * column) list =
  let st = { toks = Lexer.tokenize src } in
  let rec tables acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ -> tables (parse_table st :: acc)
  in
  let pending = tables [] in
  if pending = [] then fail "no CREATE TABLE statement";
  let check_unique what names =
    let rec dup = function
      | a :: (b :: _ as rest) ->
        if a = b then fail "duplicate %s %s" what a else dup rest
      | _ -> ()
    in
    dup (List.sort compare names)
  in
  check_unique "table" (List.map (fun t -> t.pt_name) pending);
  List.iter
    (fun t ->
      check_unique "column"
        (List.map (fun c -> t.pt_name ^ "." ^ c.pc_name) t.pt_cols))
    pending;
  let rows_of name col =
    match List.find_opt (fun t -> t.pt_name = name) pending with
    | Some t when List.exists (fun c -> c.pc_name = col) t.pt_cols ->
      t.pt_rows
    | Some _ -> fail "REFERENCES unknown column %s.%s" name col
    | None -> fail "REFERENCES unknown table %s" name
  in
  let joins = ref [] in
  let table_of (pt : pending_table) : Catalog.table_def =
    let cols =
      List.map
        (fun (pc : pending_col) ->
          let dist =
            match (pc.pc_dist, pc.pc_ref) with
            | Some d, _ -> Some d
            | None, Some (t, c) ->
              joins :=
                (Column.make pt.pt_name pc.pc_name, Column.make t c) :: !joins;
              Some (Distribution.Uniform (0.0, float_of_int (max 1 (rows_of t c) - 1)))
            | None, None -> None
          in
          Catalog.column ?dist pc.pc_name pc.pc_type)
        pt.pt_cols
    in
    Catalog.table pt.pt_name ~rows:pt.pt_rows cols
  in
  let defs = List.map table_of pending in
  (Catalog.create ~seed defs, List.rev !joins)
