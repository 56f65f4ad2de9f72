(** The cost-based query optimizer: System-R-style dynamic programming over
    connected table subsets with hash joins and index nested-loop joins
    (whose inner sides issue parameterized index requests), view matching
    for every enumerated sub-join and for the full grouped block, and
    grouping/ordering enforcement on top.

    Hooks fire on every index and view request — the entire instrumentation
    surface of §2. *)

val optimize :
  Relax_catalog.Catalog.t ->
  Relax_physical.Config.t ->
  ?hooks:Hooks.t ->
  Relax_sql.Query.select_query ->
  Plan.t
(** Optimize one select query under a configuration. *)

val optimize_select :
  Env.t -> ?hooks:Hooks.t -> Relax_sql.Query.select_query -> Plan.t
(** Same, under a pre-built environment.

    {b One selection per distinct request.}  Join enumeration asks the
    same single-table request again for every join split, merge-join
    input and nested-loop inner.  A call keeps a table, local to the
    call, from {!Request.fingerprint} to the {!Access_path.best} plan,
    and answers a repeat from it: the plan is the one a fresh selection
    builds, since within one environment a selection depends only on its
    request.  The table is made and dropped by the call, so concurrent
    calls share nothing.  [access_path.requests] still counts every
    request, and [access_path.call_hits] counts the ones the table
    answered.

    [hooks] see every request: an answer from the table still fires
    [on_index_request], so a hook sees the optimizer's requests exactly
    as a production optimizer would issue them (§2), repeats included.
    View plans' selections ([~via_view]) never use the table. *)
