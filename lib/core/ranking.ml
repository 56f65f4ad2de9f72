(** Candidate ranking (§3.4, §3.6): every transformation of a node, scored
    by its §3.3.2 ΔT bounds and §3.3.1 ΔS estimate, skyline-filtered with
    updates, and ordered by penalty (documented in the interface). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module View = Relax_physical.View
module O = Relax_optimizer
module Obs = Relax_obs
module Pool = Relax_parallel.Pool

type candidate = {
  tr : Transform.t;
  penalty : float;
  delta_cost : float;  (** ΔT: upper-bound cost increase *)
  delta_space : float;  (** ΔS: space saved *)
}

(* cap on ranked transformations kept per configuration *)
let max_candidates_per_node = 256

(* Entry cap of the bound memo: well above the ~18.5 k selections the
   longest benchmark tune keeps.  A longer tune starts over at the cap. *)
let bound_memo_cap = 1 lsl 15

(* Merge a walk's misses into the bound memo, oldest first, clearing it
   when full.  Main domain only, between pool batches: the merge order is
   the candidate order, so the table — and with it every hit — is the same
   whatever the pool's width. *)
let remember ~cap (memo : Cost_bound.memo) misses =
  List.iter
    (fun (key, s) ->
      if Hashtbl.length memo >= cap then Hashtbl.reset memo;
      Hashtbl.replace memo key s)
    (List.rev misses)

(* §3.6 skyline: drop transformations dominated by another with cost
   increase ≤ and space saving ≥ (strict in at least one).  One sweep over
   the candidates sorted by decreasing ΔS: [best] is the least ΔT among
   candidates with strictly larger ΔS (any of them dominates a candidate
   costing at least as much), [gmin] the least ΔT within the equal-ΔS
   group (it dominates only strictly costlier group members).  O(n log n)
   against the former pairwise scan, with the same survivors; the output
   keeps the input order. *)
let skyline_filter (raw : candidate list) : candidate list =
  match raw with
  | [] | [ _ ] -> raw
  | _ ->
    let arr = Array.of_list raw in
    let m = Array.length arr in
    let order = Array.init m Fun.id in
    Array.sort
      (fun i j -> Float.compare arr.(j).delta_space arr.(i).delta_space)
      order;
    let keep = Array.make m true in
    let best = ref infinity in
    let i = ref 0 in
    while !i < m do
      (* the group [!i, !j) of candidates with this ΔS *)
      let ds = arr.(order.(!i)).delta_space in
      let j = ref !i in
      let gmin = ref infinity in
      while !j < m && Cost_bound.float_eq arr.(order.(!j)).delta_space ds do
        gmin := Float.min !gmin arr.(order.(!j)).delta_cost;
        incr j
      done;
      for k = !i to !j - 1 do
        let dc = arr.(order.(k)).delta_cost in
        if dc >= !best || dc > !gmin then keep.(order.(k)) <- false
      done;
      best := Float.min !best !gmin;
      i := !j
    done;
    List.filteri (fun idx _ -> keep.(idx)) raw

(* One transformation applied to the node, as phase 1 leaves it for the
   scoring tasks: its configuration, its change (the indexes C' no longer
   holds, and those it gains), the slots whose plans read a structure it
   removes, with their weights, and its costing context when there are
   any. *)
type applied = {
  step : Transform.t;
  config' : Config.t;
  removed : Index.Set.t;
  added : Index.Set.t;
  affected : (int * float) list;
  ctx : Cost_bound.context option;
}

(* A scored candidate, the payload of its sweep entry from scoring on:
   [cand] carries the ΔT upper bound the entry's interval starts from. *)
type scored = {
  applied : applied;
  cand : candidate;
  delta_shell : float;  (** the update shells' share of ΔT *)
}

let rank_candidates h (n : Costing.node) : candidate list =
  let catalog = Costing.catalog h and pool = Costing.pool h in
  let selects = (Costing.prepared h).selects_arr in
  let memo = Costing.bound_memo h in
  let transforms =
    Transform.enumerate ~protected:(Costing.base_config h) n.config
  in
  List.iter
    (fun tr -> Obs.Probe.transform_generated ~kind:(Transform.kind tr))
    transforms;
  (* index which queries (by slot) use which structures, so each
     transformation only touches the plans it actually affects; slots are
     visited in increasing order, so a repeat is always a list's head *)
  let usage : (string, (int * float) list) Hashtbl.t = Hashtbl.create 64 in
  let add_usage name slot w =
    match Hashtbl.find_opt usage name with
    | Some ((s, _) :: _) when s = slot -> ()
    | l -> Hashtbl.replace usage name ((slot, w) :: Option.value ~default:[] l)
  in
  Array.iteri
    (fun slot (_, w, _) ->
      O.Plan.iter_accesses
        (fun (a : O.Plan.access_info) ->
          List.iter
            (fun (u : O.Plan.index_usage) ->
              add_usage (Index.name u.index) slot w)
            a.usages;
          if Config.find_view n.config a.rel <> None then add_usage a.rel slot w)
        n.plans.(slot))
    selects;
  (* the slots whose plans read an index [removed] names or a view [tr]
     removes *)
  let affected_queries removed tr =
    let names =
      Index.Set.fold
        (fun i names -> Index.name i :: names)
        removed
        (List.map View.name (Transform.removed_views tr))
    in
    (* slots sort in workload order, a total order: dedup is exact *)
    List.sort_uniq compare
      (List.concat_map
         (fun name -> Option.value ~default:[] (Hashtbl.find_opt usage name))
         names)
  in
  (* Phase 1: the CBV of every removed view an affected plan reads (the
     only views its bounds can ask for), on the main domain: [Costing.cbv]
     writes the handle's memo.  CBVs are taken before applying, yet the
     set is the one the applied candidates need: every view a
     transformation removes has its own [Remove_view], which always
     applies.  Then, in the pool, apply each transformation, take its
     change once ([Transform.changed_indexes]), find the slots whose
     plans read a removed structure, and build its costing context around
     its candidate's frozen CBV list.  Contexts are plain values — an
     environment is one too — so the pool may read every value this phase
     builds. *)
  let with_cbvs =
    Array.of_list
      (List.map
         (fun tr ->
           ( tr,
             List.filter_map
               (fun v ->
                 let name = View.name v in
                 if Hashtbl.mem usage name then Some (name, Costing.cbv h v)
                 else None)
               (Transform.removed_views tr) ))
         transforms)
  in
  let apply (tr, cbvs) =
    match
      Transform.apply_delta
        ~estimate_rows:(Costing.estimate_view_rows h)
        n.config tr
    with
    | None -> None
    | Some (config', adds) ->
      let removed, added =
        Transform.changed_indexes n.config tr (config', adds)
      in
      let affected = affected_queries removed tr in
      let ctx =
        if affected = [] then None
        else
          Some
            (Cost_bound.make_context catalog
               ~cbv:(fun v -> List.assoc (View.name v) cbvs)
               ~new_config:config' [ (n.config, tr) ])
      in
      Some { step = tr; config'; removed; added; affected; ctx }
  in
  let applied =
    List.filter_map Fun.id (Array.to_list (Pool.map_array pool apply with_cbvs))
  in
  (* Each affected plan's bound walk, built once for every candidate
     that affects it: its accesses with their consumed orders folded in,
     and the request keys of those some candidate selects on again. *)
  let slot_ctxs = Array.make (Array.length n.plans) [] in
  List.iter
    (fun a ->
      Option.iter
        (fun ctx ->
          List.iter
            (fun (slot, _) -> slot_ctxs.(slot) <- ctx :: slot_ctxs.(slot))
            a.affected)
        a.ctx)
    applied;
  let walks =
    Array.mapi
      (fun slot ctxs ->
        match ctxs with
        | [] -> None
        | _ :: _ ->
          let _, _, (sq : Query.select_query) = selects.(slot) in
          let keyed a =
            List.exists (fun ctx -> Cost_bound.reselects ctx a) ctxs
          in
          Some (Cost_bound.walk ~order_by:sq.order_by ~keyed n.plans.(slot)))
      slot_ctxs
  in
  (* The one walk over a candidate's affected plans: fold
     [w × (cost' − cost)] for the (lower, upper) costs [f] gives each
     affected plan, in workload order, from [init], threading the bound
     memo's misses through [f], which also gets the candidate's relation
     keys.  Every slot in [affected] reads a structure C' no longer
     holds, so the context has one and [f] always applies. *)
  let walk_affected a ~init f =
    match a.ctx with
    | None -> (init, [])
    | Some ctx ->
      let keys = Cost_bound.relation_keys ctx in
      List.fold_left
        (fun ((lo, hi), misses) (slot, w) ->
          let plan = n.plans.(slot) in
          let (l, u), misses = f ctx keys slot plan misses in
          ( ( lo +. (w *. (l -. plan.O.Plan.cost)),
              hi +. (w *. (u -. plan.O.Plan.cost)) ),
            misses ))
        (init, []) a.affected
  in
  (* the §3.3.2 (lower, upper) ΔT terms of one affected plan, the upper
     one through the bound memo *)
  let bounds ctx keys slot plan misses =
    let hi, misses =
      Cost_bound.query_bound_walk memo misses keys ctx (Option.get walks.(slot))
    in
    ((Cost_bound.query_lower_bound ctx plan, hi), misses)
  in
  (* The shell cost of [a.config']: a statement keeps the node's term
     unless [Update_cost.touches] finds a removed or added structure on
     its table, so the sum is the one [Costing.price_shells] computes from
     scratch, bit for bit. *)
  let shell_cost' a =
    let views_out = Transform.removed_views a.step in
    let views_in =
      if views_out = [] then []
      else
        List.filter
          (fun v -> not (Config.mem_view n.config v))
          (Config.views a.config')
    in
    snd
      (Costing.price_shells catalog (Costing.prepared h).dmls a.config'
         ~known:(fun k d ->
           let table = Query.dml_table d in
           if
             O.Update_cost.touches n.config ~table ~indexes:a.removed
               ~views:views_out
             || O.Update_cost.touches a.config' ~table ~indexes:a.added
                  ~views:views_in
           then None
           else Some n.shells.(k)))
  in
  (* Phase 2, parallel: score each applied transformation — incremental
     size (only the structures that changed are re-measured; heaps are
     recomputed only when a clustered index changes), §3.3.2 cost bounds,
     update-shell delta (only the statements whose tables a changed
     structure touches are re-priced).  A task is a pure function of the
     node and its candidate: it reads only the node's plans, the immutable
     catalog and heap list, the values phase 1 built and the bound memo,
     which nothing writes until the batch is done, and writes no shared
     table.  It returns the memo misses its bounds computed, and the
     candidate's sweep entry when it is scored, over its ΔT interval. *)
  let score a =
    let clustered (i : Index.t) = i.clustered in
    let heap' =
      if Index.Set.exists clustered a.removed || Index.Set.exists clustered a.added
      then Costing.heap_bytes h a.config'
      else n.heap
    in
    let size' =
      n.size -. n.heap +. heap'
      -. Index.Set.fold
           (fun i acc -> acc +. Config.index_bytes catalog n.config i)
           a.removed 0.0
      +. Index.Set.fold
           (fun i acc -> acc +. Config.index_bytes catalog a.config' i)
           a.added 0.0
    in
    let delta_space = n.size -. size' in
    let (delta_selects_lo, delta_selects), misses =
      walk_affected a ~init:(0.0, 0.0) bounds
    in
    let delta_shell = shell_cost' a -. n.shell_cost in
    let delta_cost = delta_selects +. delta_shell in
    ( misses,
      if delta_space <= 0.0 && delta_cost >= 0.0 then None
      else
        Some
          (Frugal.cand
             {
               applied = a;
               cand = { tr = a.step; penalty = 0.0; delta_cost; delta_space };
               delta_shell;
             }
             { lo = delta_selects_lo +. delta_shell; hi = delta_cost }) )
  in
  let scored = Pool.map_array pool score (Array.of_list applied) in
  Array.iter (fun (misses, _) -> remember ~cap:bound_memo_cap memo misses) scored;
  let raw = List.filter_map snd (Array.to_list scored) in
  (* skyline filtering for update workloads: drop dominated transformations
     (§3.6: a transformation with lower cost increase AND larger space
     saving dominates) *)
  let raw =
    if not (Costing.prepared h).has_updates then raw
    else begin
      let kept = skyline_filter (List.map (fun fc -> fc.Frugal.payload.cand) raw) in
      List.filter (fun fc -> List.memq fc.Frugal.payload.cand kept) raw
    end
  in
  let over_budget = n.size -. Costing.space_budget h in
  let penalty ~payload:s ~dt =
    if over_budget <= 0.0 then
      (* already fits: only meaningful with updates, ranked by ΔT *)
      dt
    else begin
      let denom = Float.min over_budget s.cand.delta_space in
      if denom > 0.0 then dt /. denom
      else
        (* non-shrinking while over budget: rank below every shrinking
           candidate, whatever its ΔT *)
        1e12 +. dt
    end
  in
  let upper fc = penalty ~payload:fc.Frugal.payload ~dt:fc.ival.hi in
  let sorted = List.sort (fun a b -> Float.compare (upper a) (upper b)) raw in
  let capped = List.filteri (fun i _ -> i < max_candidates_per_node) sorted in
  (* Decide the ranking from the ΔT intervals: a bounded
     ledger spends what-if calls only on candidates straddling the
     decision threshold, widest penalty gap first; the unbounded ledger
     ranks by upper ends (see {!Frugal.sweep}).  Runs sequentially on the
     main domain, so the call sequence — and with it every counter and
     cache state — is identical whatever the pool's width. *)
  (* refinement: re-optimize the affected queries for real, debiting the
     ledger per optimizer call actually executed (cache hits are free);
     queries the budget could not cover keep their model bounds, leaving
     a mixed — but still valid — interval *)
  let refine (fc : scored Frugal.cand) =
    let s = fc.payload in
    let (lo, hi), misses =
      walk_affected s.applied ~init:(s.delta_shell, s.delta_shell)
        (fun ctx keys slot plan misses ->
          match Costing.rank_plan h s.applied.config' ~slot with
          | Some plan' -> ((plan'.O.Plan.cost, plan'.O.Plan.cost), misses)
          | None -> bounds ctx keys slot plan misses)
    in
    remember ~cap:bound_memo_cap memo misses;
    fc.ival <- Frugal.tighten_with { Frugal.lo; hi } ~advisory:fc.ival
  in
  Costing.sweep h ~penalty ~refine capped;
  let updated =
    List.map
      (fun (fc : scored Frugal.cand) ->
        let s = fc.payload in
        let dt = fc.ival.hi in
        { s.cand with delta_cost = dt; penalty = penalty ~payload:s ~dt })
      capped
  in
  List.stable_sort (fun a b -> Float.compare a.penalty b.penalty) updated
