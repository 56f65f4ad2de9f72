(** Structural configuration invariants.

    Every configuration produced by {!Relax_tuner.Transform.apply} must
    satisfy a handful of invariants that no later phase re-checks: at most
    one clustered index per relation, no duplicate structures, every index
    column defined on its owner (base table or view), every table and
    column a view's definition reads defined in the catalog, and finite
    non-negative view row estimates.  [check] returns one entry per broken
    invariant; an empty list means the configuration is well-formed. *)

type violation = {
  rule : string;
      (** [clustered_unique], [duplicate_structure], [unknown_owner],
          [unknown_table], [unknown_column] or [view_rows] *)
  subject : string;  (** the offending structure or relation *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  Relax_catalog.Catalog.t -> Relax_physical.Config.t -> violation list
