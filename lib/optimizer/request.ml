(** Access-path requests — the contract between the optimizer and the
    tuner.

    An index request [(S, N, O, A)] (§2) is issued by the optimizer's
    single-relation access-path-selection entry point each time it needs a
    physical sub-plan for a logical single-table expression: [S] are columns
    in sargable predicates (here split into constant [ranges] and
    parameterized equalities [param_eq], the latter arising as inner sides of
    index nested-loop joins), [N] the non-sargable conjuncts, [O] the
    required order, and [A] the additionally referenced columns. *)

open Relax_sql.Types
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr

type t = {
  rel : string;  (** the relation (base table or view-table) *)
  ranges : Predicate.range list;  (** sargable conjuncts against constants *)
  param_eq : column list;
      (** sargable equalities against join parameters *)
  others : Expr.t list;  (** N: non-sargable conjuncts local to [rel] *)
  order : (column * order_dir) list;  (** O: required output order *)
  cols : Column_set.t;  (** every column required upward (includes A) *)
}

let make ~rel ?(ranges = []) ?(param_eq = []) ?(others = []) ?(order = [])
    ~cols () =
  let cols =
    List.fold_left
      (fun acc (r : Predicate.range) -> Column_set.add r.rcol acc)
      cols ranges
  in
  let cols = List.fold_left (fun acc c -> Column_set.add c acc) cols param_eq in
  let cols =
    List.fold_left
      (fun acc e -> Column_set.union acc (Expr.columns e))
      cols others
  in
  let cols =
    List.fold_left (fun acc (c, _) -> Column_set.add c acc) cols order
  in
  { rel; ranges; param_eq; others; order; cols }

(** S: the sargable columns. *)
let sargable_columns t =
  List.fold_left
    (fun acc (r : Predicate.range) -> Column_set.add r.rcol acc)
    (Column_set.of_list t.param_eq)
    t.ranges

(** N: columns of non-sargable conjuncts. *)
let non_sargable_columns t =
  List.fold_left
    (fun acc e -> Column_set.union acc (Expr.columns e))
    Column_set.empty t.others

let order_columns t = List.map fst t.order

(** A: referenced columns not already in S, N or O. *)
let additional_columns t =
  let s = sargable_columns t in
  let n = non_sargable_columns t in
  let o = Column_set.of_list (order_columns t) in
  Column_set.diff t.cols (Column_set.union s (Column_set.union n o))

let pp ppf t =
  Fmt.pf ppf "@[<h>req %s S={%a%s%a} N=%d O=[%a] A=%a@]" t.rel
    Fmt.(list ~sep:comma Predicate.pp_range)
    t.ranges
    (if t.param_eq = [] then "" else "; param:")
    Fmt.(list ~sep:comma Column.pp)
    t.param_eq (List.length t.others)
    Fmt.(list ~sep:comma (fun ppf (c, _) -> Column.pp ppf c))
    t.order pp_column_set (additional_columns t)

(** The request's identity: an injective encoding.  Every field is
    written in full (order directions included), floats by their bits,
    every list and string length-prefixed, so two requests encode alike
    only when they are equal field by field.  It serves both request
    identities: de-duplication (Table 1 counts distinct requests) and the
    access-path selection key.  The writers close over one local buffer. *)
let fingerprint t =
  let b = Buffer.create 256 in
  let tag c = Buffer.add_char b c in
  let rec uint n =
    if n < 128 then tag (Char.unsafe_chr n)
    else begin
      tag (Char.unsafe_chr (n land 127 lor 128));
      uint (n lsr 7)
    end
  in
  let str s =
    uint (String.length s);
    Buffer.add_string b s
  in
  (* nearly every column is [t.rel]'s: name its table only otherwise *)
  let column (c : column) =
    if String.equal c.tbl t.rel then tag '@'
    else begin
      tag '.';
      str c.tbl
    end;
    str c.col
  in
  let value = function
    | VInt i -> tag 'i'; Buffer.add_int64_le b (Int64.of_int i)
    | VFloat f -> tag 'f'; Buffer.add_int64_le b (Int64.bits_of_float f)
    | VString s -> tag 's'; str s
    | VDate d -> tag 'd'; Buffer.add_int64_le b (Int64.of_int d)
  in
  let bound = function
    | None -> tag '-'
    | Some { Predicate.value = v; inclusive } ->
      tag (if inclusive then '[' else '(');
      value v
  in
  let rec expr (e : Expr.t) =
    match e with
    | Col c -> tag 'C'; column c
    | Const v -> tag 'K'; value v
    | Neg e -> tag 'N'; expr e
    | Not e -> tag '!'; expr e
    | Bin (op, x, y) ->
      tag (match op with Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/');
      expr x;
      expr y
    | Cmp (op, x, y) ->
      tag
        (match op with
        | Eq -> '=' | Neq -> '#' | Lt -> '<' | Le -> 'l' | Gt -> '>' | Ge -> 'g');
      expr x;
      expr y
    | And (x, y) -> tag '&'; expr x; expr y
    | Or (x, y) -> tag '|'; expr x; expr y
    | Like (x, p) -> tag '~'; expr x; str p
    | In_list (x, vs) ->
      tag 'I';
      expr x;
      uint (List.length vs);
      List.iter value vs
  in
  (* access-path selection tells a consumed conjunct from the residual
     ones by physical identity, so a conjunct listed twice as one value
     is written as a back-reference to its latest earlier position *)
  let conjuncts write xs =
    uint (List.length xs);
    let rec go k seen = function
      | [] -> ()
      | x :: rest ->
        let rec earlier j = function
          | [] -> None
          | y :: ys -> if y == x then Some j else earlier (j - 1) ys
        in
        (match earlier (k - 1) seen with
        | Some j -> tag '^'; uint j
        | None -> tag '.'; write x);
        go (k + 1) (x :: seen) rest
    in
    go 0 [] xs
  in
  str t.rel;
  conjuncts
    (fun (r : Predicate.range) ->
      column r.rcol;
      bound r.lo;
      bound r.hi)
    t.ranges;
  uint (List.length t.param_eq);
  List.iter column t.param_eq;
  conjuncts expr t.others;
  uint (List.length t.order);
  List.iter
    (fun (c, d) ->
      column c;
      tag (match d with Asc -> 'a' | Desc -> 'd'))
    t.order;
  uint (Column_set.cardinal t.cols);
  Column_set.iter column t.cols;
  Buffer.contents b
