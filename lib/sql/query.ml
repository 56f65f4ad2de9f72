(** Query and workload representation.

    The query language is the paper's: single-block SPJ queries with optional
    GROUP BY (SPJG), plus an ORDER BY on top for select statements.  The same
    SPJG record doubles as the view-definition language (§"Assumptions").
    Update statements carry the pieces needed by §3.6 (splitting into a pure
    select query and an update shell). *)

open Types

(** Aggregate functions allowed in SPJG select lists. *)
type agg_fn = Count | Sum | Min | Max | Avg

let pp_agg_fn ppf f =
  Fmt.string ppf
    (match f with
    | Count -> "COUNT"
    | Sum -> "SUM"
    | Min -> "MIN"
    | Max -> "MAX"
    | Avg -> "AVG")

(** An output column: either a base-table column or an aggregate over one
    ([Item_agg (Count, None)] is a count-star). *)
type select_item = Item_col of column | Item_agg of agg_fn * column option

let item_columns = function
  | Item_col c | Item_agg (_, Some c) -> Column_set.singleton c
  | Item_agg (_, None) -> Column_set.empty

let pp_select_item ppf = function
  | Item_col c -> Column.pp ppf c
  | Item_agg (f, Some c) -> Fmt.pf ppf "%a(%a)" pp_agg_fn f Column.pp c
  | Item_agg (f, None) -> Fmt.pf ppf "%a(*)" pp_agg_fn f

(** A single-block SPJG query: the 6-tuple (S, F, J, R, O, G) of §3.1.2. *)
type spjg = {
  select : select_item list;  (** S *)
  tables : string list;  (** F, kept sorted and duplicate-free *)
  joins : Predicate.join list;  (** J *)
  ranges : Predicate.range list;  (** R *)
  others : Expr.t list;  (** O *)
  group_by : column list;  (** G *)
}

let make_spjg ~select ~tables ?(joins = []) ?(ranges = []) ?(others = [])
    ?(group_by = []) () =
  {
    select;
    tables = List.sort_uniq String.compare tables;
    joins;
    ranges = Predicate.normalize_ranges ranges;
    others;
    group_by;
  }

let has_aggregates q =
  List.exists (function Item_agg _ -> true | Item_col _ -> false) q.select

(** All columns referenced anywhere in the block. *)
let spjg_columns q =
  let acc =
    List.fold_left
      (fun acc it -> Column_set.union acc (item_columns it))
      Column_set.empty q.select
  in
  let acc =
    Predicate.classified_columns
      { joins = q.joins; ranges = q.ranges; others = q.others }
    |> Column_set.union acc
  in
  List.fold_left (fun acc c -> Column_set.add c acc) acc q.group_by

(** Columns of [q] that live in table [t]. *)
let spjg_columns_of_table q t =
  Column_set.filter (fun c -> c.tbl = t) (spjg_columns q)

(** A full select statement: an SPJG block plus a required output order. *)
type select_query = {
  body : spjg;
  order_by : (column * order_dir) list;
}

(** Update statements, already in the shape §3.6 wants.  [Insert] models a
    batch of [rows] row insertions; [Update] assigns expressions to columns
    of a single table under a classified WHERE; [Delete] removes the rows
    matching its WHERE. *)
type dml =
  | Update of {
      table : string;
      assignments : (string * Expr.t) list;
      ranges : Predicate.range list;
      others : Expr.t list;
    }
  | Insert of { table : string; rows : int }
  | Delete of {
      table : string;
      ranges : Predicate.range list;
      others : Expr.t list;
    }

let dml_table = function
  | Update u -> u.table
  | Insert i -> i.table
  | Delete d -> d.table

type statement = Select of select_query | Dml of dml

(** A workload entry: a statement with an identifier and a frequency
    weight. *)
type entry = { qid : string; weight : float; stmt : statement }

type workload = entry list

let entry ?(weight = 1.0) qid stmt = { qid; weight; stmt }

let dml_entries w =
  List.filter_map
    (fun e -> match e.stmt with Dml d -> Some (e, d) | Select _ -> None)
    w

let has_updates w = dml_entries w <> []

(** Tables referenced by a statement. *)
let statement_tables = function
  | Select q -> q.body.tables
  | Dml d -> [ dml_table d ]

(* --- Column equivalence under a query's join predicates ------------------ *)

(** Equivalence classes of columns induced by a set of equi-join predicates;
    this is the relation under which "modulo column equivalence" tests run.
    Implemented as a tiny union-find over the columns that appear in
    joins. *)
let column_equiv (joins : Predicate.join list) : column -> column -> bool =
  let parent = Hashtbl.create 16 in
  let rec find c =
    match Hashtbl.find_opt parent c with
    | None -> c
    | Some p ->
      let r = find p in
      Hashtbl.replace parent c r;
      r
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (Column.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter (fun (j : Predicate.join) -> union j.left j.right) joins;
  fun a b -> Column.equal a b || Column.equal (find a) (find b)

(** The qid under which a DML entry's select component is planned and
    cached.  Every costing layer (what-if cache keys, frugal-tier
    lookups, per-node plan maps) must derive the component qid through
    this one helper so the caches agree. *)
let select_qid qid = qid ^ ":select"

(** Inverse of {!select_qid}: the workload entry's qid behind a planning
    qid, whether or not it carries the select-component suffix. *)
let base_qid qid =
  match String.rindex_opt qid ':' with
  | Some i when String.sub qid i (String.length qid - i) = ":select" ->
    String.sub qid 0 i
  | _ -> qid

(* --- The running example of §3.6 ----------------------------------------- *)

(** Split an update statement into its pure select component and an update
    shell, per §3.6:
    [UPDATE R SET a=b+1, c=c*c+5 WHERE a<10 AND d<20] becomes
    [SELECT b+1, c*c+5 FROM R WHERE a<10 AND d<20] plus
    [UPDATE TOP(k) R SET a=0, c=0] where [k] is the select's cardinality.
    The select component is [None] for inserts (nothing to read). *)
let split_update (d : dml) : select_query option * dml =
  match d with
  | Update u ->
    let cols =
      List.fold_left
        (fun acc (_, e) -> Column_set.union acc (Expr.columns e))
        Column_set.empty u.assignments
    in
    let select =
      if Column_set.is_empty cols then
        [ Item_agg (Count, None) ]
      else
        List.map (fun c -> Item_col c) (Column_set.elements cols)
    in
    let body =
      make_spjg ~select ~tables:[ u.table ] ~ranges:u.ranges ~others:u.others
        ()
    in
    (Some { body; order_by = [] }, d)
  | Delete del ->
    let body =
      make_spjg
        ~select:[ Item_agg (Count, None) ]
        ~tables:[ del.table ] ~ranges:del.ranges ~others:del.others ()
    in
    (Some { body; order_by = [] }, d)
  | Insert _ -> (None, d)

(** The statements the optimizer plans, in workload order: every select,
    plus the select component of each update (§3.6) under its
    {!select_qid}.  Inserts have nothing to plan and are skipped. *)
let plannable_selects (w : workload) : (string * float * select_query) list =
  List.filter_map
    (fun e ->
      match e.stmt with
      | Select q -> Some (e.qid, e.weight, q)
      | Dml d -> (
        match split_update d with
        | Some q, _ -> Some (select_qid e.qid, e.weight, q)
        | None, _ -> None))
    w

(** Columns assigned by an update shell (used to decide which indexes an
    UPDATE maintains: only those containing an assigned column). *)
let updated_columns = function
  | Update u ->
    List.fold_left
      (fun acc (name, _) -> Column_set.add (Column.make u.table name) acc)
      Column_set.empty u.assignments
  | Insert _ | Delete _ -> Column_set.empty
  (* inserts and deletes touch every index on the table *)

let statement_columns = function
  | Select q ->
    List.fold_left
      (fun acc (c, _) -> Column_set.add c acc)
      (spjg_columns q.body) q.order_by
  | Dml d ->
    let read =
      match split_update d with
      | Some q, _ -> spjg_columns q.body
      | None, _ -> Column_set.empty
    in
    Column_set.union read (updated_columns d)
