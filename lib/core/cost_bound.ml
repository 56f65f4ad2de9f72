(** Execution-cost upper bounds for relaxed configurations (§3.3.2).

    The principle: a relaxed configuration [C'] can answer every request the
    replaced structures answered, just less efficiently.  So we isolate each
    access sub-plan that used a replaced structure and re-cost {e only that
    sub-plan} against [C'] (reusing access-path selection — a component of
    the optimizer, not a full optimization call), adding compensating
    rid-lookups, filters, sorts or group-bys where needed.  Substituting the
    patched sub-plan into the otherwise unchanged execution plan yields a
    valid plan under [C'], hence an upper bound on the optimizer's cost.

    Removed views are bounded by [CBV]: the cost of computing the view from
    scratch under the base configuration, plus a scan over its result
    (§3.3.2, "View Transformations"). *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr
module O = Relax_optimizer
module P = O.Cost_params

(** Context describing one relaxation step [C -> C'], of one or more
    transformations. *)
type context = {
  env' : O.Env.t;  (** environment under the relaxed configuration *)
  old_env : O.Env.t;  (** environment under the current configuration *)
  removed_indexes : Index.t list;
      (** taken out and no longer held by [C'] *)
  removed_views : View.t list;
  view_merge : (View.merge_result * View.t * View.t) option;
      (** set when the step merges two views (result, v1, v2) *)
  cbv : View.t -> float;
      (** cost of computing a view under the base configuration *)
  expands : bool;
      (** does the relaxation introduce replacement structures
          ({!Transform.adds_structures})?  Pure removals shrink the plan
          space, which makes the old plan's cost a sound lower bound on the
          re-optimized cost; with replacements an affected query can
          genuinely get cheaper and the lower bound must account for it *)
}

let make_context cat ~cbv ~new_config steps =
  let old_config =
    match steps with
    | (c, _) :: _ -> c
    | [] -> invalid_arg "Cost_bound.make_context: no transformation"
  in
  (* A merged view a later step removed again is not there to remap
     onto: accesses on its inputs then take the CBV bound. *)
  let view_merge =
    List.find_map
      (fun (_, (tr : Transform.t)) ->
        match tr with
        | Merge_views (a, b) -> (
          match View.merge a b with
          | Some m when Config.mem_view new_config m.merged -> Some (m, a, b)
          | _ -> None)
        | _ -> None)
      steps
  in
  {
    env' = O.Env.make cat new_config;
    old_env = O.Env.make cat old_config;
    removed_indexes =
      List.concat_map
        (fun (c, tr) -> Transform.gone_indexes c tr new_config)
        steps;
    removed_views = List.concat_map (fun (_, tr) -> Transform.removed_views tr) steps;
    view_merge;
    cbv;
    expands = List.exists (fun (_, tr) -> Transform.adds_structures tr) steps;
  }

(* ------------------------------------------------------------------ *)
(* tolerant float comparisons                                          *)
(* ------------------------------------------------------------------ *)

(* Costs and sizes are sums of products of estimates: the last ulps of a
   comparison are accumulation noise, not signal.  Every cost/size
   comparison in the costing layers goes through these helpers (enforced
   by relax-lint L3); the default tolerance is relative to the larger
   magnitude, with an absolute floor of [eps] around zero. *)

let float_scale a b = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
let float_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. float_scale a b
let float_leq ?(eps = 1e-9) a b = a -. b <= eps *. float_scale a b
let float_lt ?(eps = 1e-9) a b = b -. a > eps *. float_scale a b

let index_removed ctx i = List.exists (Index.equal i) ctx.removed_indexes

let view_removed ctx name =
  List.exists (fun v -> View.name v = name) ctx.removed_views

(** Is this access affected by the relaxation? *)
let affected ctx (a : O.Plan.access_info) =
  List.exists (fun (u : O.Plan.index_usage) -> index_removed ctx u.index) a.usages
  || view_removed ctx a.rel

exception Unbounded
(* raised when no compensation can be constructed; the caller falls back to
   the CBV bound or, at worst, infinity (the search then avoids the
   transformation) *)

(* --- view-merge compensation ------------------------------------------ *)

(* Remap an access request over view [v] onto the merged view, adding the
   compensating predicates for whatever the merge widened. *)
let remap_request_onto_merged (m : View.merge_result) (v : View.t)
    ~(remap : column -> column option) (r : O.Request.t) : O.Request.t * bool =
  let map_col c = match remap c with Some c' -> c' | None -> raise Unbounded in
  let merged_def = View.definition m.merged in
  let vdef = View.definition v in
  (* base-level predicates of [v] that the merged view no longer enforces *)
  let expose_base c =
    match View.view_column_of_base m.merged c with
    | Some vc -> vc
    | None -> raise Unbounded
  in
  let lost_ranges =
    List.filter_map
      (fun (rv : Predicate.range) ->
        let kept =
          List.exists
            (fun (rm : Predicate.range) ->
              Column.equal rm.rcol rv.rcol && Predicate.range_equal rm rv)
            merged_def.ranges
        in
        if kept then None else Some { rv with rcol = expose_base rv.rcol })
      vdef.ranges
  in
  let lost_others =
    List.filter_map
      (fun e ->
        if List.exists (Expr.equal e) merged_def.others then None
        else Some (Expr.map_columns expose_base e))
      vdef.others
  in
  let lost_joins =
    List.filter_map
      (fun (j : Predicate.join) ->
        if Predicate.join_mem j merged_def.joins then None
        else
          Some (Expr.Cmp (Eq, Col (expose_base j.left), Col (expose_base j.right))))
      vdef.joins
  in
  let ranges = List.map (fun (rg : Predicate.range) -> { rg with rcol = map_col rg.rcol }) r.ranges in
  let others = List.map (Expr.map_columns map_col) r.others in
  let cols =
    Column_set.fold (fun c acc -> Column_set.add (map_col c) acc) r.cols Column_set.empty
  in
  let regroup_needed =
    vdef.group_by <> []
    && not
         (List.length vdef.group_by = List.length merged_def.group_by
         && List.for_all
              (fun g ->
                match View.view_column_of_base v g with
                | Some _ -> List.exists (Column.equal g) merged_def.group_by
                | None -> false)
              vdef.group_by)
  in
  let order = if regroup_needed then [] else List.map (fun (c, d) -> (map_col c, d)) r.order in
  ( O.Request.make ~rel:(View.name m.merged)
      ~ranges:(ranges @ lost_ranges)
      ~others:(others @ lost_others @ lost_joins)
      ~order ~cols (),
    regroup_needed )

(* --- per-access bounds -------------------------------------------------- *)

(* Bound for an access whose view was removed outright: compute the view
   from scratch under the base configuration (CBV) and scan its output. *)
let removed_view_bound ctx (a : O.Plan.access_info) (v : View.t) : float =
  let rows = O.Env.rows ctx.old_env (View.name v) in
  let width = O.Env.row_width ctx.old_env (View.name v) in
  let page = Relax_physical.Size_model.default_params.page_size in
  let pages = Float.max 1.0 (rows *. width /. page) in
  let scan = (pages *. P.seq_page) +. (rows *. P.cpu_tuple) in
  let sort =
    if a.request.order = [] then 0.0
    else begin
      (* only the rows the access actually returns reach the sort, not the
         whole view: cost it on the accessed cardinality and its pages *)
      let sort_rows = Float.min rows (Float.max 0.0 a.access_rows) in
      let sort_pages = Float.max 1.0 (sort_rows *. width /. page) in
      P.sort_cost ~rows:sort_rows ~pages:sort_pages
    end
  in
  ctx.cbv v +. scan +. (rows *. P.cpu_eval) +. sort

(* The enclosing plan may consume an access's delivered output order
   without re-sorting: a merge join's inputs, a streaming aggregate's
   input, the query's ORDER BY when no Sort operator re-establishes it.
   Patching such an access with an unordered replacement silently
   invalidates the surrounding plan — the optimizer's true best can then
   exceed the "bound" (the checker caught exactly this on a TPC-H merge
   join fed by an index scan's key order).  Both walks below thread, by
   {!O.Plan.inputs}, whether the parent still needs a subtree's order; at
   an access [p] whose order is needed, that order is folded into its
   request, so every bounding strategy below (access-path re-selection,
   view remapping, CBV) prices the sort needed to keep the enclosing plan
   valid. *)
let with_consumed_order ~needed (p : O.Plan.t) (a : O.Plan.access_info) :
    O.Plan.access_info =
  if (not needed) || p.out_order = [] || a.request.order <> [] then a
  else
    {
      a with
      request =
        O.Request.make ~rel:a.request.rel ~ranges:a.request.ranges
          ~param_eq:a.request.param_eq ~others:a.request.others
          ~order:p.out_order ~cols:a.request.cols ();
    }

(* --- the bound memo --------------------------------------------------- *)

type selection = { cost : float; rows : float }
type memo = (string, selection) Hashtbl.t
type misses = (string * selection) list
type relation_keys = string -> string

(* A context's relation keys, each computed the first time a bound asks
   for it.  The closure belongs to one scoring task. *)
let relation_keys ctx : relation_keys =
  let keys = Hashtbl.create 4 in
  fun rel ->
    match Hashtbl.find_opt keys rel with
    | Some k -> k
    | None ->
      let k = O.Access_path.relation_key ctx.env' rel in
      Hashtbl.add keys rel k;
      k

(* Access-path selection under C' for one bound.  Without a memo it is
   [best] itself.  With one, it is keyed by [request]'s key ([request_key]
   when the caller holds it) and its relation's, and a key the memo or
   this walk's own misses already hold is answered from them (still
   counted as a request, and as a memo hit); any other is computed and
   returned among the misses, for the search to merge.  The memo is only
   read here. *)
let select memo misses env' ?request_key (request : O.Request.t) =
  let compute () =
    let p = O.Access_path.best env' request in
    { cost = p.cost; rows = p.rows }
  in
  match memo with
  | None -> (compute (), misses)
  | Some (memo, relation_keys) -> (
    let request_key =
      match request_key with
      | Some k -> k
      | None -> O.Access_path.request_key request
    in
    let key =
      O.Access_path.compose_key env' ~request_key
        ~relation_key:(relation_keys request.rel) request
    in
    let known =
      match Hashtbl.find_opt memo key with
      | Some _ as s -> s
      | None -> List.assoc_opt key misses
    in
    match known with
    | Some s ->
      Relax_obs.Probe.count "access_path.requests";
      Relax_obs.Probe.count "access_path.memo_hits";
      (s, misses)
    | None ->
      let s = compute () in
      (s, (key, s) :: misses))

(* Upper bound on re-implementing one affected access under the relaxed
   configuration (per execution), with its access-path selections through
   [select].  The access comes from a {!walk}, so the output order its
   enclosing plan consumes is already part of its request. *)
let access_bound memo misses ?request_key ctx (a : O.Plan.access_info) :
    float * misses =
  match ctx.view_merge with
  | Some (m, v1, v2) when a.rel = View.name v1 || a.rel = View.name v2 -> (
    let v, remap =
      if a.rel = View.name v1 then (v1, m.remap1) else (v2, m.remap2)
    in
    match remap_request_onto_merged m v ~remap a.request with
    | exception Unbounded -> (removed_view_bound ctx a v, misses)
    | request, regroup ->
      let s, misses = select memo misses ctx.env' request in
      let regroup_cost =
        if regroup then (s.rows *. P.cpu_hash) +. (a.access_rows *. P.cpu_agg)
        else 0.0
      in
      (s.cost +. regroup_cost, misses))
  | _ ->
    if view_removed ctx a.rel then begin
      match
        List.find_opt (fun v -> View.name v = a.rel) ctx.removed_views
      with
      | Some v -> (removed_view_bound ctx a v, misses)
      | None -> raise Unbounded
    end
    else begin
      (* index transformation: the relation still exists under C'; re-run
         access-path selection there.  The result is a valid plan, hence an
         upper bound. *)
      let s, misses = select memo misses ctx.env' ?request_key a.request in
      (s.cost, misses)
    end

(* One affected access's share of a query bound, given its access bound
   [b].  Access-path selection under [C'] may find a *cheaper* path than
   the one the old plan used; a negative delta would drag the "upper
   bound" below the cost of the (still valid) patched plan, so each
   per-access contribution is clamped at zero — the result stays an upper
   bound on the optimizer's cost under [C']. *)
let patch (a : O.Plan.access_info) b =
  Float.max 0.0 (a.executions *. (b -. a.access_cost))

(* --- walks ------------------------------------------------------------- *)

(* Does a bound under [ctx] re-run access-path selection on [a]'s own
   request?  Only when [a] reads a removed index of a relation that
   survives: an access on a removed view is remapped onto the merged view
   or takes the CBV bound. *)
let reselects ctx (a : O.Plan.access_info) =
  (not (view_removed ctx a.rel))
  && List.exists
       (fun (u : O.Plan.index_usage) -> index_removed ctx u.index)
       a.usages

type step = { access : O.Plan.access_info; request_key : string option }
type walk = { cost : float; steps : step list }

let walk ?(order_by = []) ~keyed (plan : O.Plan.t) =
  let rec go needed (p : O.Plan.t) steps =
    let steps =
      List.fold_right
        (fun (needed, input) steps -> go needed input steps)
        (O.Plan.inputs ~needed p) steps
    in
    match p.node with
    | Access { info; _ } ->
      let access = with_consumed_order ~needed p info in
      let request_key =
        if keyed access then Some (O.Access_path.request_key access.request)
        else None
      in
      { access; request_key } :: steps
    | _ -> steps
  in
  { cost = plan.cost; steps = go (order_by <> []) plan [] }

(* The one fold of a query bound: patch every affected access of the
   walk, with its access-path selections through [select]. *)
let query_bound_walk_in memo misses ctx w =
  List.fold_left
    (fun (acc, misses) { access; request_key } ->
      if affected ctx access then begin
        let b, misses = access_bound memo misses ?request_key ctx access in
        (acc +. patch access b, misses)
      end
      else (acc, misses))
    (w.cost, misses) w.steps

(** Upper bound on the whole query's cost under the relaxed configuration:
    patch every affected access, keep the rest of the plan (§3.3.2).
    [order_by] is the query's required output order — when the plan
    delivers it through an access rather than a Sort operator, patching
    that access must preserve it. *)
let query_bound ?order_by ctx plan =
  fst
    (query_bound_walk_in None [] ctx
       (walk ?order_by ~keyed:(fun _ -> false) plan))

let query_bound_walk memo misses relation_keys ctx w =
  query_bound_walk_in (Some (memo, relation_keys)) misses ctx w

(** Does this plan touch any structure the relaxation removes? *)
let plan_affected ctx (plan : O.Plan.t) =
  List.exists (affected ctx) (O.Plan.accesses plan)

(* --- patched-plan materialization (the frugal costing tier) ------------- *)

exception Unpatchable

(** Materialize the §3.3.2 patched plan: every affected access sub-plan is
    replaced by the best surviving access path under [C'] (with the
    consumed output order folded into its request, and the original
    execution count preserved), the rest of the plan is kept, and every
    ancestor's cumulative cost absorbs the per-access delta — clamped at
    zero exactly like {!query_bound}, so the returned plan's top-level
    cost equals the {!query_bound} value.  The result is a {e valid} plan
    under [C'] — real accesses, real usages — so every later
    affected-test, bound and ranking delta computed from it stays
    meaningful, unlike a stale plan carrying a substituted cost.

    Returns [None] when an affected access cannot be re-implemented as an
    access path (removed or merged views: their compensation is a
    from-scratch view computation, not a plan). *)
let patched_plan ?(order_by = []) ctx (plan : O.Plan.t) : O.Plan.t option =
  let rec go needed (p : O.Plan.t) : O.Plan.t * float =
    match p.node with
    | Access { info; input = _ } when affected ctx info ->
      if
        view_removed ctx info.rel
        || (match ctx.view_merge with
           | Some (_, v1, v2) ->
             info.rel = View.name v1 || info.rel = View.name v2
           | None -> false)
      then raise Unpatchable
      else begin
        let info = with_consumed_order ~needed p info in
        let repl =
          O.Access_path.best ctx.env' ?via_view:info.via_view info.request
        in
        (* the replacement runs as many times as the access it replaces *)
        ( O.Plan.with_executions repl info.executions,
          patch info repl.cost )
      end
    | Access _ -> (p, 0.0)
    | _ -> (
      match O.Plan.inputs ~needed p with
      | [] -> (p, 0.0)
      | inputs ->
        let inputs' = List.map (fun (needed, k) -> go needed k) inputs in
        let d = List.fold_left (fun acc (_, dk) -> acc +. dk) 0.0 inputs' in
        ( { (O.Plan.with_inputs p (List.map fst inputs')) with
            cost = p.cost +. d },
          d ))
  in
  match go (order_by <> []) plan with
  | p, _ -> Some p
  | exception Unpatchable -> None

(* --- lower bounds (the frugal costing tier) ----------------------------- *)

(** Lower bound on the query's re-optimized cost under [C'].

    For pure removals ([expands = false]) the old plan's cost itself is the
    bound: the plan was optimal under a configuration that is a superset of
    [C'], and shrinking the structure set can only shrink the plan space,
    so the optimum under [C'] cannot be cheaper.  This direction is exact
    model-free reasoning, not an estimate.

    With replacement structures ([expands = true]) the model makes no
    claim: the bound is 0.  Any floor assembled from the old plan's
    operators can be beaten by a plan the optimizer restructures around
    the replacement — a promoted clustered index whose order deletes a
    Sort {e and} flips a hash join to a merge join, a merged index whose
    covering kills a rid-lookup an entire join order was shaped by — and
    the differential checker caught exactly such a case (a per-access
    floor over-estimating the optimum by 27% under an index promotion).
    Nothing raises it: an expanding relaxation's interval keeps its 0
    lower end until a budgeted optimizer call collapses it.

    [order_by] is ignored: the bound does not depend on output order. *)
let query_lower_bound ?order_by:_ ctx (plan : O.Plan.t) : float =
  if not ctx.expands then plan.cost else 0.0
