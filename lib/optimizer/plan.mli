(** Physical execution plans, annotated with estimated rows, cumulative
    cost, delivered order and delivered columns.

    Every single-relation access decision is wrapped in an [Access] node
    carrying the request it answered and per-index usage records — the
    "explain" information §3.3.2 requires: estimated cost, rows, type of
    usage (seek with its selectivity, or scan), required order, sought
    columns, and the additional columns provided upward. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View

(** How one index was used by an access path. *)
type usage_kind =
  | Seek of { sel : float; seek_cols : column list }
  | Scan

type index_usage = {
  index : Index.t;
  kind : usage_kind;
  rows_touched : float;
}

(** The record attached to each single-relation access decision. *)
type access_info = {
  rel : string;
  request : Request.t;
  usages : index_usage list;  (** empty = a heap scan answered the request *)
  via_view : View.t option;
      (** set when this access implements a sub-join via a matched view *)
  access_cost : float;  (** cost of the access sub-plan, per execution *)
  access_rows : float;
  sorted : bool;  (** a sort operator was needed inside the access *)
  executions : float;
      (** how many times the access runs (> 1 on nested-loop inner sides);
          total attributable cost is [executions *. access_cost] *)
}

type t = {
  node : node;
  rows : float;
  cost : float;  (** cumulative, including inputs *)
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
      ranges : Relax_sql.Predicate.range list;
      others : Relax_sql.Expr.t list;
    }
  | Sort of { input : t; order : (column * order_dir) list }
  | Hash_join of { build : t; probe : t; joins : Relax_sql.Predicate.join list }
  | Merge_join of { left : t; right : t; joins : Relax_sql.Predicate.join list }
      (** both inputs sorted on the join keys *)
  | Nl_join of { outer : t; inner : t; joins : Relax_sql.Predicate.join list }
  | Group of {
      input : t;
      keys : column list;
      aggs : Relax_sql.Query.select_item list;
      streaming : bool;
    }
  | Access of { info : access_info; input : t }

val cost : t -> float
val rows : t -> float

val iter_accesses : (access_info -> unit) -> t -> unit
(** Apply a function to every access decision, pre-order, without
    materializing a list — the traversal the search's per-node scoring
    loops use. *)

val accesses : t -> access_info list
(** Every access decision in the plan ({!iter_accesses} order). *)

val index_usages : t -> index_usage list

val uses_view : t -> View.t -> bool
(** Does the plan read the view, directly or through a matched sub-join? *)

(** {1 The order rule}

    A plan may consume an input's delivered order without sorting it:
    a merge join its inputs', a streaming group its input's, the query's
    ORDER BY the top operator's.  Replacing an access whose order is
    consumed by one that does not deliver it leaves an invalid plan, so
    the §3.3.2 bound must know, at every access, whether its order is
    consumed.  [needed] says whether a node's own output order is
    consumed; its inputs inherit it as follows:
    - no input of a [Sort] or a [Rid_intersect] (each sets its own
      order);
    - both [Merge_join] inputs, always;
    - the [Hash_join] probe, not its build;
    - the [Nl_join] outer, not its inner;
    - a [Group]'s input only when the group streams;
    - the input of an [Access], a [Filter] and a [Rid_lookup] (each
      passes it through). *)

val inputs : needed:bool -> t -> (bool * t) list
(** The node's inputs, left to right ({!iter_accesses} order), each with
    whether its output order is consumed, given [needed] for the node. *)

val with_inputs : t -> t list -> t
(** The node with its inputs replaced, in {!inputs} order; every other
    field is kept.  Raises [Invalid_argument] on the wrong number of
    inputs. *)

val with_executions : t -> float -> t
(** An [Access] plan whose access runs the given number of times per
    execution of its enclosing plan (a nested-loop inner runs once per
    outer row); any other plan unchanged. *)

val pp : Format.formatter -> t -> unit
