(** Predicate classification and range algebra.

    Following the paper's Assumptions section, WHERE-clause conjuncts divide
    into three classes: {b join predicates} (equi-joins across tables),
    {b range predicates} (sargable single-column comparisons against
    constants; equality is a degenerate range), and {b other predicates}
    (everything else, non-sargable). *)

open Types

(** One endpoint of a range. *)
type bound = { value : value; inclusive : bool }

val bound : ?inclusive:bool -> value -> bound
(** [inclusive] defaults to [true]. *)

(** A sargable conjunct [lo <=(<) col <=(<) hi]; [None] = unbounded side.
    Equality is two inclusive bounds with the same value. *)
type range = { rcol : column; lo : bound option; hi : bound option }

(** An equi-join conjunct, normalized so [left <= right] under column order
    (making join-set comparison order-insensitive). *)
type join = { left : column; right : column }

(** {1 Joins} *)

val make_join : column -> column -> join
val join_equal : join -> join -> bool
val join_mem : join -> join list -> bool
val join_to_expr : join -> Expr.t

(** {1 Ranges} *)

val range_eq : column -> value -> range
(** The equality predicate [col = v]. *)

val range : ?lo:bound -> ?hi:bound -> column -> range

val is_equality : range -> bool
val is_unbounded : range -> bool

val range_intersect : range -> range -> range
(** Conjunction of two ranges on the same column (tighter bounds win).
    @raise Assert_failure if the columns differ. *)

val range_union : range -> range -> range
(** The smallest single range containing both inputs: the "merge" of
    same-column range predicates used by view merging (§3.1.2).  If the
    result {!is_unbounded}, the caller should drop the predicate. *)

val implies : by:range -> range -> bool
(** [implies ~by r]: every row satisfying [by] also satisfies [r] ([r] is
    the weaker predicate).  The subsumption test of view matching. *)

val range_equal : range -> range -> bool
(** Same column, mutually implying bounds. *)

val normalize_ranges : range list -> range list
(** Collapse multiple conjuncts on the same column by intersection. *)

val range_to_exprs : range -> Expr.t list
(** Render back into comparison expressions (for printing and for
    compensating filters). *)

(** {1 Classification} *)

(** The classified conjuncts of a WHERE clause. *)
type classified = {
  joins : join list;
  ranges : range list;
  others : Expr.t list;
}

val empty_classified : classified

val classify : Expr.t list -> classified
(** Classify the top-level conjuncts of the given expressions.  Same-column
    ranges are combined; unrecognized shapes land in [others]. *)

val classified_columns : classified -> Column_set.t

(** {1 Printing} *)

val pp_range : Format.formatter -> range -> unit

val range_key : range -> string
(** {!pp_range}'s text with constants printed by {!Value.pp_key}: two
    ranges with distinct bounds never share a key. *)

val pp_join : Format.formatter -> join -> unit
