(** Maintenance costs of physical structures under update statements
    (§3.6): the "update shell" model.

    An index on the updated table is charged when the statement touches any
    of its columns (always, for inserts and deletes); an index over a view
    is charged whenever the view reads the updated table, with a multiplier
    for delta computation.

    {b What a shell cost depends on.}  [shell_cost env config d] reads,
    besides the catalog and the fixed cost parameters, only:
    - the statement [d], all of it;
    - the indexes its table [Query.dml_table d] owns, the clustered one
      among them included (it also decides the pages of the base-relation
      write);
    - every view of [config] that reads that table, with its definition and
      row estimate, and the indexes on such a view.
    The fold adds the charges in the configuration's index and view order,
    and a structure the statement does not touch adds nothing.  So
    changing structures {!touches} answers [false] for keeps the shell
    cost of [d], bit for bit.  [env] must be [Env.make catalog config]. *)

val view_delta_factor : float

val affected_rows : Env.t -> Relax_sql.Query.dml -> float
(** Estimated rows the statement touches. *)

val index_affected : Relax_sql.Query.dml -> Relax_physical.Index.t -> bool
val view_affected : Relax_sql.Query.dml -> Relax_physical.View.t -> bool

val touches :
  Relax_physical.Config.t ->
  table:string ->
  indexes:Relax_physical.Index.Set.t ->
  views:Relax_physical.View.t list ->
  bool
(** The relevance rule: can changing [indexes] and [views], all structures
    of the configuration given, move the shell cost of a statement on
    [table]?  Yes exactly when one of them is an index [table] owns (its
    clustered one included), a view that reads [table], or an index on a
    view of the configuration that reads [table].  A transformation from
    [C] to [C'] leaves a statement's shell cost unchanged when the rule
    answers [false] both for what it removes (structures of [C]) and for
    what it adds (structures of [C']). *)

val shell_cost :
  Env.t -> Relax_physical.Config.t -> Relax_sql.Query.dml -> float
(** Total maintenance cost of the configuration for one update statement
    (plus the config-independent base-relation write). *)
