(** Single-relation access-path selection — the optimizer's unique entry
    point for physical index strategies (§2, Figure 2).

    {b What a selection depends on.}  [best env r] reads, besides the
    catalog and the fixed cost parameters, only:
    - the request [r], all of it;
    - the indexes on [r.rel] ([Env.indexes_on], in that order: a tie
      between equally cheap paths goes to the first), the clustered one
      among them included;
    - when [r.rel] is a view of the configuration, its definition (which
      its name digests) and its row estimate; the view's column
      statistics are synthesized from these and the catalog;
    - likewise for any other view a range or parameter column of [r]
      belongs to (none, in every request the optimizer and the §3.3.2
      bounds build).
    Nothing else of the configuration reaches it: no other relation's
    structures, no other view.  {!selection_key} digests exactly this, so
    within one catalog two selections with the same key have the same
    cost and rows.

    Generated plans instantiate the paper's template tree: index seeks or
    scans at the leaves, binary rid intersections, an optional rid lookup
    for missing columns, an optional filter for non-sargable predicates, and
    an optional sort to enforce order (Figure 1).  The cheapest alternative
    wins. *)

val order_satisfied :
  delivered:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  required:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  bool
(** Direction-insensitive prefix test (indexes scan both ways). *)

val add_sort :
  Env.t ->
  Plan.t ->
  required:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  Plan.t
(** Enforce an order with a sort operator when the plan does not already
    deliver it. *)

val best :
  Env.t ->
  ?hooks:Hooks.t ->
  ?via_view:Relax_physical.View.t ->
  Request.t ->
  Plan.t
(** Pick the cheapest physical strategy for a request, firing the
    [on_index_request] hook first.  The result is wrapped in an
    [Plan.Access] node carrying the usage records. *)

val selection_key : Env.t -> Request.t -> string
(** [Digest.string] of everything [best env r]'s cost and rows depend on
    within one catalog (see the module preamble): {!Request.fingerprint}
    of [r], each index on [r.rel] (clustered flag, key and suffix columns) and the
    row estimate of every view the selection reads.  [hooks] and
    [via_view] do not enter it: neither changes the chosen path's cost or
    rows. *)
