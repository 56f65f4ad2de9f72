(** Predicate classification and range algebra.

    Following the paper, the conjuncts of a WHERE clause are divided into
    three classes:
    - {b join predicates}: column = column equi-joins across tables;
    - {b range predicates}: sargable single-column comparisons against
      constants (equality is a degenerate range);
    - {b other predicates}: everything else (non-sargable).

    Range predicates support the operations the relaxation engine needs:
    intersection (conjunction of predicates on the same column), union
    ("merging" same-column ranges when merging two view definitions, §3.1.2),
    and implication (the subsumption test of view matching). *)

open Types

(** One endpoint of a range. *)
type bound = { value : value; inclusive : bool }

let bound ?(inclusive = true) value = { value; inclusive }

(** A sargable conjunct: [lo <=(<) col <=(<) hi].  [None] means unbounded on
    that side.  Equality is encoded as two inclusive bounds with the same
    value. *)
type range = { rcol : column; lo : bound option; hi : bound option }

(** An equi-join conjunct, normalized so that [left <= right] under column
    order; this makes structural comparison of join sets order-insensitive. *)
type join = { left : column; right : column }

let make_join a b =
  if Column.compare a b <= 0 then { left = a; right = b }
  else { left = b; right = a }

let join_equal j1 j2 =
  Column.equal j1.left j2.left && Column.equal j1.right j2.right

let join_mem j js = List.exists (join_equal j) js

let range_eq col v = { rcol = col; lo = Some (bound v); hi = Some (bound v) }

let range ?lo ?hi col = { rcol = col; lo; hi }

(** Is this range a single-point equality predicate? *)
let is_equality r =
  match (r.lo, r.hi) with
  | Some l, Some h -> l.inclusive && h.inclusive && Value.equal l.value h.value
  | _ -> false

let is_unbounded r = r.lo = None && r.hi = None

(* Pick the tighter of two bounds; [side] selects the max (for lows) or the
   min (for highs). *)
let tighter_low a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
    let c = Value.compare x.value y.value in
    if c > 0 then Some x
    else if c < 0 then Some y
    else Some { x with inclusive = x.inclusive && y.inclusive }

let tighter_high a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
    let c = Value.compare x.value y.value in
    if c < 0 then Some x
    else if c > 0 then Some y
    else Some { x with inclusive = x.inclusive && y.inclusive }

let looser_low a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y ->
    let c = Value.compare x.value y.value in
    if c < 0 then Some x
    else if c > 0 then Some y
    else Some { x with inclusive = x.inclusive || y.inclusive }

let looser_high a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y ->
    let c = Value.compare x.value y.value in
    if c > 0 then Some x
    else if c < 0 then Some y
    else Some { x with inclusive = x.inclusive || y.inclusive }

(** Conjunction of two ranges on the same column. *)
let range_intersect a b =
  assert (Column.equal a.rcol b.rcol);
  { rcol = a.rcol; lo = tighter_low a.lo b.lo; hi = tighter_high a.hi b.hi }

(** The smallest single range containing both [a] and [b]; this is the
    "merge" of same-column range predicates used by view merging.  If the
    result is unbounded on both sides the caller should drop the predicate
    entirely (the paper's "minor improvement"). *)
let range_union a b =
  assert (Column.equal a.rcol b.rcol);
  { rcol = a.rcol; lo = looser_low a.lo b.lo; hi = looser_high a.hi b.hi }

(* [bound_le side a b]: does bound [a] admit everything bound [b] admits? *)
let low_implied ~weaker ~stronger =
  match (weaker, stronger) with
  | None, _ -> true
  | Some _, None -> false
  | Some w, Some s ->
    let c = Value.compare w.value s.value in
    c < 0 || (c = 0 && (w.inclusive || not s.inclusive))

let high_implied ~weaker ~stronger =
  match (weaker, stronger) with
  | None, _ -> true
  | Some _, None -> false
  | Some w, Some s ->
    let c = Value.compare w.value s.value in
    c > 0 || (c = 0 && (w.inclusive || not s.inclusive))

(** [implies ~by r]: every row satisfying [by] also satisfies [r]
    (i.e. [r] is the weaker predicate).  Used by view matching: a view range
    must be implied by the query's ranges for the view to contain all rows
    the query needs. *)
let implies ~by r =
  Column.equal r.rcol by.rcol
  && low_implied ~weaker:r.lo ~stronger:by.lo
  && high_implied ~weaker:r.hi ~stronger:by.hi

let range_equal a b =
  Column.equal a.rcol b.rcol && implies ~by:a b && implies ~by:b a

(** Normalize a list of ranges: collapse multiple conjuncts on the same
    column into one by intersection, in first-appearance column order. *)
let normalize_ranges ranges =
  let rec insert r = function
    | [] -> [ r ]
    | r' :: rest when Column.equal r'.rcol r.rcol ->
      range_intersect r' r :: rest
    | r' :: rest -> r' :: insert r rest
  in
  List.fold_left (fun acc r -> insert r acc) [] ranges

(** The classified conjuncts of a WHERE clause. *)
type classified = {
  joins : join list;
  ranges : range list;
  others : Expr.t list;
}

let empty_classified = { joins = []; ranges = []; others = [] }

(* Recognize sargable shapes: [col op const] and [const op col]. *)
let as_range = function
  | Expr.Cmp (op, Col c, Const v) -> (
    match op with
    | Eq -> Some (range_eq c v)
    | Lt -> Some (range ~hi:(bound ~inclusive:false v) c)
    | Le -> Some (range ~hi:(bound v) c)
    | Gt -> Some (range ~lo:(bound ~inclusive:false v) c)
    | Ge -> Some (range ~lo:(bound v) c)
    | Neq -> None)
  | Expr.Cmp (op, Const v, Col c) -> (
    match op with
    | Eq -> Some (range_eq c v)
    | Gt -> Some (range ~hi:(bound ~inclusive:false v) c)
    | Ge -> Some (range ~hi:(bound v) c)
    | Lt -> Some (range ~lo:(bound ~inclusive:false v) c)
    | Le -> Some (range ~lo:(bound v) c)
    | Neq -> None)
  | _ -> None

let as_join = function
  | Expr.Cmp (Eq, Col a, Col b) when a.tbl <> b.tbl -> Some (make_join a b)
  | _ -> None

(** Classify the top-level conjuncts of a boolean expression.  Conjuncts on
    the same column are combined; anything not recognizably sargable lands in
    [others]. *)
let classify exprs =
  let step acc e =
    match as_join e with
    | Some j -> { acc with joins = j :: acc.joins }
    | None -> (
      match as_range e with
      | Some r -> { acc with ranges = r :: acc.ranges }
      | None -> { acc with others = e :: acc.others })
  in
  let c =
    List.fold_left step empty_classified
      (List.concat_map Expr.conjuncts exprs)
  in
  {
    joins = List.rev c.joins;
    ranges = normalize_ranges (List.rev c.ranges);
    others = List.rev c.others;
  }

(** Columns mentioned by a classified predicate set. *)
let classified_columns c =
  let join_cols =
    List.fold_left
      (fun acc j -> Column_set.add j.left (Column_set.add j.right acc))
      Column_set.empty c.joins
  in
  let range_cols =
    List.fold_left (fun acc r -> Column_set.add r.rcol acc) join_cols c.ranges
  in
  List.fold_left
    (fun acc e -> Column_set.union acc (Expr.columns e))
    range_cols c.others

let pp_bound_lo pp_value ppf = function
  | None -> ()
  | Some b ->
    Fmt.pf ppf "%a %s " pp_value b.value (if b.inclusive then "<=" else "<")

let pp_bound_hi pp_value ppf = function
  | None -> ()
  | Some b ->
    Fmt.pf ppf " %s %a" (if b.inclusive then "<=" else "<") pp_value b.value

let pp_range_with pp_value ppf r =
  if is_equality r then
    match r.lo with
    | Some b -> Fmt.pf ppf "%a = %a" Column.pp r.rcol pp_value b.value
    | None -> assert false
  else
    Fmt.pf ppf "%a%a%a" (pp_bound_lo pp_value) r.lo Column.pp r.rcol
      (pp_bound_hi pp_value) r.hi

let pp_range = pp_range_with Value.pp
let range_key r = Fmt.str "%a" (pp_range_with Value.pp_key) r

let pp_join ppf j = Fmt.pf ppf "%a = %a" Column.pp j.left Column.pp j.right

(** Render a range back into an expression (for pretty-printing and for
    feeding residual predicates to compensating filters). *)
let range_to_exprs r =
  let lo =
    match r.lo with
    | None -> []
    | Some b ->
      [ Expr.Cmp ((if b.inclusive then Ge else Gt), Col r.rcol, Const b.value) ]
  in
  if is_equality r then
    match r.lo with
    | Some b -> [ Expr.Cmp (Eq, Col r.rcol, Const b.value) ]
    | None -> assert false
  else
    lo
    @
    match r.hi with
    | None -> []
    | Some b ->
      [ Expr.Cmp ((if b.inclusive then Le else Lt), Col r.rcol, Const b.value) ]

let join_to_expr j = Expr.Cmp (Eq, Col j.left, Col j.right)
