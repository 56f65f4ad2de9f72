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
    [Plan.Access] node carrying the usage records.

    {b Candidate order.}  Paths are considered in a fixed order, and a
    later one replaces the best so far only when strictly cheaper, so a
    tie goes to the earlier: the heap (or clustered) scan; one seek per
    index whose keys the request can seek, in {!Env.indexes_on} order;
    one full scan per index, in the same order; the rid intersections
    of the most selective seeks; the IN-list unions.  Each index's leaf
    pages, height, available columns and seek are computed once per
    call.

    {b Pruning.}  A full index scan starts from
    [leaf × seq_page + rows × cpu_tuple], and its filters, rid lookup and
    sort each add a non-negative cost.  A scan whose starting cost is
    already at least the best so far therefore cannot replace it, and is
    not built; the chosen path and its plan are the ones the unpruned
    order picks.  The skipped scans of one call are counted once, as
    [access_path.paths_pruned]. *)

val request_key : Request.t -> string
(** The request part of a selection key: [Digest.string] of
    {!Request.fingerprint}.  It depends on the request alone, so a caller
    that asks about one request under many configurations computes it
    once. *)

val relation_key : Env.t -> string -> string
(** The sub-configuration part of a selection key for relation [rel]:
    [Digest.string] of each index on [rel], in {!Env.indexes_on} order
    (clustered flag, key and suffix column names), and of [rel]'s row
    estimate when it is a view of the configuration.  It depends on the
    configuration and [rel] alone, so a caller that asks many selections
    on [rel] under one configuration computes it once. *)

val compose_key :
  Env.t -> request_key:string -> relation_key:string -> Request.t -> string
(** [compose_key env ~request_key ~relation_key r] is [selection_key env r]
    given [r]'s {!request_key} and the {!relation_key} of [r.rel] under
    [env]: [Digest.string] of the two digests, followed by the row
    estimate tag of every other relation a sargable column of [r] names.
    No request the optimizer or the §3.3.2 bounds build has such a
    column, so for them the key digests the two parts alone. *)

val selection_key : Env.t -> Request.t -> string
(** Everything [best env r]'s cost and rows depend on within one catalog
    (see the module preamble): {!compose_key} of [r]'s {!request_key} and
    [r.rel]'s {!relation_key}.  [hooks] and [via_view] do not enter it:
    neither changes the chosen path's cost or rows. *)
