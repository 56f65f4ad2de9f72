(** Access-path requests — the contract between the optimizer and the
    tuner.

    An index request [(S, N, O, A)] (§2) is issued by the optimizer's
    single-relation access-path-selection entry point each time it needs a
    physical sub-plan for a logical single-table expression. *)

open Relax_sql.Types

type t = {
  rel : string;  (** the relation (base table or view-table) *)
  ranges : Relax_sql.Predicate.range list;
      (** sargable conjuncts against constants *)
  param_eq : column list;
      (** sargable equalities against join parameters (index nested-loop
          inner sides) *)
  others : Relax_sql.Expr.t list;  (** N: non-sargable conjuncts *)
  order : (column * order_dir) list;  (** O: required output order *)
  cols : Column_set.t;  (** every column required upward *)
}

val make :
  rel:string ->
  ?ranges:Relax_sql.Predicate.range list ->
  ?param_eq:column list ->
  ?others:Relax_sql.Expr.t list ->
  ?order:(column * order_dir) list ->
  cols:Column_set.t ->
  unit ->
  t
(** [cols] is automatically extended with every column the predicates and
    order reference. *)

val sargable_columns : t -> Column_set.t
(** S. *)

val non_sargable_columns : t -> Column_set.t
(** Columns of N. *)

val order_columns : t -> column list

val additional_columns : t -> Column_set.t
(** A: referenced columns not already in S, N or O. *)

val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** The request's identity: an injective encoding of every field, order
    directions included and floats by their bits, so two requests share a
    fingerprint only when they are equal field by field.  A conjunct
    listed twice as one physical value is encoded as a back-reference,
    since access-path selection tells conjuncts apart by identity.  Used
    for request de-duplication (Table 1 counts distinct requests) and in
    {!Access_path.selection_key}. *)
