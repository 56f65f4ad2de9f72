(** Physical execution plans.

    Plans are annotated with estimated rows, cumulative cost, delivered
    order and delivered columns.  Every single-relation access decision is
    wrapped in an [Access] node carrying the request it answered and the
    index usage records the tuner's cost-bounding machinery consumes
    (§3.3.2: "we extract from a query's execution plan, for each used
    index: estimated cost, rows, type of usage, required order, sought
    columns, and additional columns"). *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr
module Query = Relax_sql.Query

(** How one index was used by an access path. *)
type usage_kind =
  | Seek of { sel : float; seek_cols : column list }
      (** fraction of the index touched and the key prefix sought *)
  | Scan

type index_usage = {
  index : Index.t;
  kind : usage_kind;
  rows_touched : float;  (** rows read out of the index *)
}

(** The record attached to each single-relation access decision. *)
type access_info = {
  rel : string;
  request : Request.t;
  usages : index_usage list;  (** empty = heap scan answered the request *)
  via_view : View.t option;
      (** set when this access implements a sub-join via a matched view *)
  access_cost : float;  (** total cost of the access sub-plan, per execution *)
  access_rows : float;  (** rows the access sub-plan outputs *)
  sorted : bool;  (** a sort operator was needed inside the access *)
  executions : float;
      (** how many times the access runs (> 1 on inner sides of nested-loop
          joins); total attributable cost is [executions *. access_cost] *)
}

type t = {
  node : node;
  rows : float;
  cost : float;  (** cumulative cost including inputs *)
  out_order : (column * order_dir) list;
  out_cols : Column_set.t;
}

and node =
  | Seq_scan of string
  | Index_scan of Index.t
  | Index_seek of { index : Index.t; sel : float; seek_cols : column list }
  | Rid_intersect of t * t
  | Rid_union of { index : Index.t; points : int; rows : float }
      (** multi-point seek: one seek per IN-list value, rids unioned *)
  | Rid_lookup of { input : t; rel : string }
  | Filter of {
      input : t;
      ranges : Predicate.range list;
      others : Expr.t list;
    }
  | Sort of { input : t; order : (column * order_dir) list }
  | Hash_join of { build : t; probe : t; joins : Predicate.join list }
  | Merge_join of { left : t; right : t; joins : Predicate.join list }
      (** both inputs sorted on the join keys (sorts, if needed, are inside
          the inputs) *)
  | Nl_join of { outer : t; inner : t; joins : Predicate.join list }
      (** [inner.cost] is per-outer-row; total accounted in the node *)
  | Group of {
      input : t;
      keys : column list;
      aggs : Query.select_item list;
      streaming : bool;
    }
  | Access of { info : access_info; input : t }

let cost t = t.cost
let rows t = t.rows

(** Apply [f] to every access decision in the plan, pre-order.  The
    allocation-free traversal: the scoring loops walk every plan of every
    node per iteration, and materializing an [access_info list] per walk
    (worse, gluing sub-lists with [@]) was measurable minor-heap churn on
    100+-statement workloads. *)
let iter_accesses f t =
  let rec go t =
    match t.node with
    | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> ()
    | Access { info; input } ->
      f info;
      go input
    | Rid_lookup { input; _ } | Filter { input; _ } | Sort { input; _ } ->
      go input
    | Rid_intersect (a, b) ->
      go a;
      go b
    | Hash_join { build; probe; _ } ->
      go build;
      go probe
    | Merge_join { left; right; _ } ->
      go left;
      go right
    | Nl_join { outer; inner; _ } ->
      go outer;
      go inner
    | Group { input; _ } -> go input
  in
  go t

(** Collect every access decision in the plan (pre-order, same order as
    {!iter_accesses}).  One accumulator pass, no list concatenation. *)
let accesses t =
  let acc = ref [] in
  iter_accesses (fun info -> acc := info :: !acc) t;
  List.rev !acc

exception Found

(* short-circuiting exists over the access decisions, no list built *)
let exists_access pred t =
  match iter_accesses (fun a -> if pred a then raise_notrace Found) t with
  | () -> false
  | exception Found -> true

(** All index usages in the plan. *)
let index_usages t = List.concat_map (fun a -> a.usages) (accesses t)

(** Does the plan read the view, directly or through a matched sub-join? *)
let uses_view t v =
  exists_access
    (fun (a : access_info) ->
      a.rel = View.name v
      || match a.via_view with Some v' -> View.equal v v' | None -> false)
    t

(* The order rule, stated once.  An operator that streams an input
   without reordering it hands the order its consumer needs down to that
   input; a Sort or a rid intersection establishes its own order, and a
   merge join needs both inputs on the join keys whatever its consumer
   needs.  The bound walk and the patched plan (§3.3.2) recurse through
   this, so both agree on which accesses must keep their order. *)
let inputs ~needed t =
  match t.node with
  | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> []
  | Access { input; _ } | Filter { input; _ } | Rid_lookup { input; _ } ->
    [ (needed, input) ]
  | Sort { input; _ } -> [ (false, input) ]
  | Rid_intersect (a, b) -> [ (false, a); (false, b) ]
  | Hash_join { build; probe; _ } -> [ (false, build); (needed, probe) ]
  | Merge_join { left; right; _ } -> [ (true, left); (true, right) ]
  | Nl_join { outer; inner; _ } -> [ (needed, outer); (false, inner) ]
  | Group { input; streaming; _ } -> [ (streaming, input) ]

let with_inputs t inputs =
  let node =
    match (t.node, inputs) with
    | (Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _), [] -> t.node
    | Access a, [ input ] -> Access { a with input }
    | Filter f, [ input ] -> Filter { f with input }
    | Rid_lookup r, [ input ] -> Rid_lookup { r with input }
    | Sort s, [ input ] -> Sort { s with input }
    | Group g, [ input ] -> Group { g with input }
    | Rid_intersect _, [ a; b ] -> Rid_intersect (a, b)
    | Hash_join h, [ build; probe ] -> Hash_join { h with build; probe }
    | Merge_join m, [ left; right ] -> Merge_join { m with left; right }
    | Nl_join n, [ outer; inner ] -> Nl_join { n with outer; inner }
    | _ -> invalid_arg "Plan.with_inputs: wrong number of inputs"
  in
  { t with node }

(* The access runs [executions] times per execution of its enclosing
   plan: recorded so that cost bounding attributes the access its true
   share of the plan cost. *)
let with_executions t executions =
  match t.node with
  | Access { info; input } ->
    { t with node = Access { info = { info with executions }; input } }
  | _ -> t

let rec pp ppf t =
  let child = Fmt.pf ppf "@,@[<v2>  %a@]" pp in
  Fmt.pf ppf "@[<v>";
  (match t.node with
  | Seq_scan rel -> Fmt.pf ppf "SeqScan(%s)" rel
  | Index_scan i -> Fmt.pf ppf "IndexScan(%a)" Index.pp i
  | Index_seek { index; sel; seek_cols } ->
    Fmt.pf ppf "IndexSeek(%a; on %a; sel=%.4g)" Index.pp index
      Fmt.(list ~sep:comma Column.pp)
      seek_cols sel
  | Rid_intersect (a, b) ->
    Fmt.pf ppf "RidIntersect";
    child a;
    child b
  | Rid_union { index; points; _ } ->
    Fmt.pf ppf "RidUnion(%a; %d points)" Index.pp index points
  | Rid_lookup { input; rel } ->
    Fmt.pf ppf "RidLookup(%s)" rel;
    child input
  | Filter { input; ranges; others } ->
    Fmt.pf ppf "Filter(%d ranges, %d others)" (List.length ranges)
      (List.length others);
    child input
  | Sort { input; order } ->
    Fmt.pf ppf "Sort(%a)"
      Fmt.(list ~sep:comma (fun ppf (c, _) -> Column.pp ppf c))
      order;
    child input
  | Hash_join { build; probe; _ } ->
    Fmt.pf ppf "HashJoin";
    child build;
    child probe
  | Merge_join { left; right; _ } ->
    Fmt.pf ppf "MergeJoin";
    child left;
    child right
  | Nl_join { outer; inner; _ } ->
    Fmt.pf ppf "IndexNLJoin";
    child outer;
    child inner
  | Group { input; keys; streaming; _ } ->
    Fmt.pf ppf "Group(%s; %a)"
      (if streaming then "stream" else "hash")
      Fmt.(list ~sep:comma Column.pp)
      keys;
    child input
  | Access { info; input } ->
    Fmt.pf ppf "Access(%s%s)" info.rel
      (match info.via_view with
      | Some v -> " via " ^ View.name v
      | None -> "");
    child input);
  Fmt.pf ppf "  [rows=%.4g cost=%.4g]@]" t.rows t.cost
