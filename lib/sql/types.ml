(** Core scalar types shared by the whole system: SQL data types, column
    references and constant values.

    Columns are identified by a [(table, column)] pair.  Tables here may be
    base tables or synthesized view-tables (a materialized view simulated in
    the catalog); the rest of the system does not care which. *)

type data_type =
  | Int
  | Float
  | Date
  | Char of int  (** fixed width, in bytes *)
  | Varchar of int  (** declared maximum width, in bytes *)

let width_of_type = function
  | Int -> 4.0
  | Float -> 8.0
  | Date -> 4.0
  | Char n -> float_of_int n
  | Varchar n -> float_of_int n /. 2.0
(* average length of a variable-length value: half the declared maximum is
   the usual back-of-the-envelope the paper's size model samples for. *)

let pp_data_type ppf = function
  | Int -> Fmt.string ppf "INT"
  | Float -> Fmt.string ppf "FLOAT"
  | Date -> Fmt.string ppf "DATE"
  | Char n -> Fmt.pf ppf "CHAR(%d)" n
  | Varchar n -> Fmt.pf ppf "VARCHAR(%d)" n

(** A (possibly view-) qualified column reference. *)
type column = { tbl : string; col : string }

module Column = struct
  type t = column

  let make tbl col = { tbl; col }

  let compare a b =
    match String.compare a.tbl b.tbl with
    | 0 -> String.compare a.col b.col
    | c -> c

  let equal a b = compare a b = 0
  let pp ppf c = Fmt.pf ppf "%s.%s" c.tbl c.col
  let to_string c = c.tbl ^ "." ^ c.col
  let hash c = Hashtbl.hash (c.tbl, c.col)
end

module Column_set = Set.Make (Column)
module Column_map = Map.Make (Column)

let pp_column_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma Column.pp) (Column_set.elements s)

let column_set_of_list = Column_set.of_list

(** SQL constants.  Dates are stored as day numbers so they order and
    subtract like integers. *)
type value =
  | VInt of int
  | VFloat of float
  | VString of string
  | VDate of int

module Value = struct
  type t = value

  (* Order-preserving embedding of values into floats, used by histograms
     and selectivity estimation.  Strings are embedded by their first eight
     bytes, which preserves lexicographic order well enough for range
     selectivity purposes. *)
  let to_float = function
    | VInt i -> float_of_int i
    | VFloat f -> f
    | VDate d -> float_of_int d
    | VString s ->
      let acc = ref 0.0 in
      for i = 0 to 7 do
        let c = if i < String.length s then Char.code s.[i] else 0 in
        acc := (!acc *. 256.0) +. float_of_int c
      done;
      !acc

    let compare a b =
      match (a, b) with
      | VInt x, VInt y -> Int.compare x y
      | VString x, VString y -> String.compare x y
      | VDate x, VDate y -> Int.compare x y
      | _ -> Float.compare (to_float a) (to_float b)

    let equal a b = compare a b = 0

    let pp ppf = function
      | VInt i -> Fmt.int ppf i
      | VFloat f -> Fmt.pf ppf "%g" f
      | VString s -> Fmt.pf ppf "'%s'" s
      | VDate d -> Fmt.pf ppf "DATE(%d)" d

    let to_string v = Fmt.str "%a" pp v

    let pp_key ppf = function
      | VFloat f ->
        let g = Printf.sprintf "%g" f in
        let exact =
          match float_of_string_opt g with
          | Some f' -> Int64.equal (Int64.bits_of_float f') (Int64.bits_of_float f)
          | None -> false
        in
        if exact then Fmt.string ppf g else Fmt.pf ppf "%h" f
      | v -> pp ppf v
end

(** Comparison operators appearing in predicates. *)
type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

let pp_cmp_op ppf op =
  Fmt.string ppf
    (match op with
    | Eq -> "="
    | Neq -> "<>"
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

(** Arithmetic operators in scalar expressions. *)
type arith_op = Add | Sub | Mul | Div

let pp_arith_op ppf op =
  Fmt.string ppf
    (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/")

type order_dir = Asc | Desc

let pp_order_dir ppf = function
  | Asc -> Fmt.string ppf "ASC"
  | Desc -> Fmt.string ppf "DESC"
