(** Scalar expressions: the WHERE-clause building blocks.

    Expressions serve three purposes in the system:
    - they carry the non-sargable ("other") predicates of queries and view
      definitions, where structural equality (modulo column equivalence) is
      the matching test the paper prescribes;
    - they appear on the right-hand side of UPDATE assignments;
    - the parser produces them before {!Predicate.classify} splits a WHERE
      clause into join / range / other conjuncts. *)

open Types

type t =
  | Col of column
  | Const of value
  | Neg of t
  | Bin of arith_op * t * t
  | Cmp of cmp_op * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Like of t * string
  | In_list of t * value list

let col c = Col c
let const v = Const v
let int_ i = Const (VInt i)
let float_ f = Const (VFloat f)
let string_ s = Const (VString s)

(** All column references appearing in an expression. *)
let rec columns = function
  | Col c -> Column_set.singleton c
  | Const _ -> Column_set.empty
  | Neg e | Not e | Like (e, _) | In_list (e, _) -> columns e
  | Bin (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    Column_set.union (columns a) (columns b)

(** Tables referenced by an expression. *)
let tables e =
  Column_set.fold
    (fun c acc -> if List.mem c.tbl acc then acc else c.tbl :: acc)
    (columns e) []

(** Structural equality modulo a column equivalence relation.  The paper's
    view-matching procedure tests conjunct equality "structurally, modulo
    column equivalence" -- the equivalence classes being the ones induced by
    the query's equi-join predicates. *)
let rec equal_modulo equiv a b =
  match (a, b) with
  | Col x, Col y -> equiv x y
  | Const x, Const y -> Value.equal x y
  | Neg x, Neg y | Not x, Not y -> equal_modulo equiv x y
  | Bin (o1, x1, y1), Bin (o2, x2, y2) ->
    o1 = o2 && equal_modulo equiv x1 x2 && equal_modulo equiv y1 y2
  | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
    o1 = o2 && equal_modulo equiv x1 x2 && equal_modulo equiv y1 y2
  | And (x1, y1), And (x2, y2) | Or (x1, y1), Or (x2, y2) ->
    equal_modulo equiv x1 x2 && equal_modulo equiv y1 y2
  | Like (x, p1), Like (y, p2) -> p1 = p2 && equal_modulo equiv x y
  | In_list (x, v1), In_list (y, v2) ->
    equal_modulo equiv x y
    && List.length v1 = List.length v2
    && List.for_all2 Value.equal v1 v2
  | ( ( Col _ | Const _ | Neg _ | Not _ | Bin _ | Cmp _ | And _ | Or _
      | Like _ | In_list _ ),
      _ ) -> false

let equal a b = equal_modulo Column.equal a b

(** Substitute column references, e.g. when mapping a predicate from base
    tables onto the output columns of a materialized view. *)
let rec map_columns f = function
  | Col c -> Col (f c)
  | Const v -> Const v
  | Neg e -> Neg (map_columns f e)
  | Not e -> Not (map_columns f e)
  | Like (e, p) -> Like (map_columns f e, p)
  | In_list (e, vs) -> In_list (map_columns f e, vs)
  | Bin (o, a, b) -> Bin (o, map_columns f a, map_columns f b)
  | Cmp (o, a, b) -> Cmp (o, map_columns f a, map_columns f b)
  | And (a, b) -> And (map_columns f a, map_columns f b)
  | Or (a, b) -> Or (map_columns f a, map_columns f b)

(** Split an expression into its top-level conjuncts. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec pp ppf = function
  | Col c -> Column.pp ppf c
  | Const v -> Value.pp ppf v
  | Neg e -> Fmt.pf ppf "-(%a)" pp e
  | Bin (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a pp_arith_op op pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %a %a" pp a pp_cmp_op op pp b
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not e -> Fmt.pf ppf "NOT (%a)" pp e
  | Like (e, p) -> Fmt.pf ppf "%a LIKE '%s'" pp e p
  | In_list (e, vs) ->
    Fmt.pf ppf "%a IN (%a)" pp e Fmt.(list ~sep:comma Value.pp) vs

let to_string e = Fmt.str "%a" pp e

(** A stable structural key, used for hashing expressions in caches. *)
let rec fingerprint = function
  | Col c -> "c:" ^ Column.to_string c
  | Const v -> Fmt.str "k:%a" Value.pp_key v
  | Neg e -> "n(" ^ fingerprint e ^ ")"
  | Not e -> "!(" ^ fingerprint e ^ ")"
  | Like (e, p) -> "l(" ^ fingerprint e ^ "," ^ p ^ ")"
  | In_list (e, vs) ->
    "i(" ^ fingerprint e ^ ","
    ^ String.concat "," (List.map (Fmt.str "%a" Value.pp_key) vs)
    ^ ")"
  | Bin (o, a, b) ->
    Fmt.str "b(%a,%s,%s)" pp_arith_op o (fingerprint a) (fingerprint b)
  | Cmp (o, a, b) ->
    Fmt.str "p(%a,%s,%s)" pp_cmp_op o (fingerprint a) (fingerprint b)
  | And (a, b) -> "a(" ^ fingerprint a ^ "," ^ fingerprint b ^ ")"
  | Or (a, b) -> "o(" ^ fingerprint a ^ "," ^ fingerprint b ^ ")"
