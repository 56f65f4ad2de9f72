(** The relaxation-based search (§3.2–§3.6, Figure 5).

    The search starts from the optimal configuration of §2 and repeatedly
    relaxes configurations from a pool.  The template's two open choices are
    instantiated with the paper's heuristics:

    - {e which transformation} (line 6): the one minimizing
      [penalty = ΔT / min(Space(C) − B, ΔS)], where ΔT is the §3.3.2 cost
      upper bound and ΔS the §3.3.1 size estimate; with updates in the
      workload, dominated transformations are first removed (skyline), and
      once a configuration already fits the budget the penalty degenerates
      to ΔT (§3.6).
    - {e which configuration} (line 5): keep relaxing the last one until it
      fits (with updates: or while relaxation keeps reducing its cost); then
      revisit the chain at the largest actual penalty; finally fall back to
      the cheapest configuration with untried transformations (§3.4).

    Only queries whose plans used a replaced structure are re-optimized when
    a configuration is evaluated, and a partial sum already exceeding the
    best known cost aborts the evaluation (§3.5). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module View = Relax_physical.View
module O = Relax_optimizer
module Obs = Relax_obs
module Pool = Relax_parallel.Pool

(** A fixed-size bitset over workload slots — the flat replacement for the
    [unit String_map.t] pseudo-marker sets.  One byte per eight selects
    instead of a balanced tree of boxed strings: copying a node's marker
    set is a [Bytes.copy], membership is two shifts and a load. *)
module Bitset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) lsr 3) '\000'
  let mem t i = Char.code (Bytes.get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let add t i =
    Bytes.set t (i lsr 3)
      (Char.chr (Char.code (Bytes.get t (i lsr 3)) lor (1 lsl (i land 7))))

  let is_empty t =
    let n = Bytes.length t in
    let rec go i = i >= n || (Char.code (Bytes.get t i) = 0 && go (i + 1)) in
    go 0
end

let src = Logs.Src.create "relax.search" ~doc:"relaxation search"

module Log = (val Logs.src_log src : Logs.LOG)

(** How line 6 of Figure 5 picks among ranked candidates.  [Penalty] is the
    paper's heuristic (§3.4); the others exist for the ablation study. *)
type selection =
  | Penalty  (** minimize ΔT / min(Space − B, ΔS) *)
  | Cost_greedy  (** minimize ΔT only (ignores space pressure) *)
  | Space_greedy  (** maximize ΔS only (ignores cost) *)
  | Random of int  (** uniformly random applicable transformation (seeded) *)

(** Everything a differential checker needs to replay one iteration of the
    search against independent oracles (see [Relax_check]).  [it_applied]
    is the configuration right after applying [it_transform] to the parent
    — before the §3.5 multi-transformation extension and shrinking — so a
    checker can re-derive it and compare; [it_result] is the evaluated
    node's (configuration, cost, size) when the outcome is ["evaluated"]. *)
type iteration_report = {
  it_iteration : int;
  it_parent : Config.t;
  it_parent_cost : float;
  it_parent_size : float;
  it_transform : Transform.t;
  it_applied : Config.t option;
  it_predicted_delta_cost : float;  (** ΔT: the §3.3.2 upper bound *)
  it_predicted_delta_space : float;  (** ΔS: the §3.3.1 estimate *)
  it_penalty : float;
  it_outcome : string;
      (** [evaluated], [shortcut], [duplicate] or [inapplicable] *)
  it_result : (Config.t * float * float) option;
      (** (configuration, cost, size) of the evaluated node *)
}

type mode = Indexes_only | Indexes_and_views

(* documented in the interface *)
type options = {
  mode : mode;
  space_budget : float;
  base_config : Config.t;
  max_iterations : int;
  time_budget_s : float option;
  transforms_per_iteration : int;
  shrink_configurations : bool;
  selection : selection;
  jobs : int;
  whatif_budget : int option;
  initial_config : Config.t option;
  whatif : O.Whatif.t option;
  on_iteration : (iteration_report -> unit) option;
}

(* cap on ranked transformations kept per configuration *)
let max_candidates_per_node = 256

(** A ranked candidate transformation of one configuration. *)
type candidate = {
  tr : Transform.t;
  penalty : float;
  delta_cost : float;  (** ΔT: upper-bound cost increase *)
  delta_space : float;  (** ΔS: space saved *)
}

(** A configuration in the pool, with its evaluated plans and costs.
    Plans live in a slot-indexed array (one slot per workload select, see
    {!prepared}), not a string map: the evaluation and ranking loops walk
    every plan of every node each iteration, and the flat representation
    turns those walks into cache-friendly array scans with no per-step
    boxing — the point of the arena refactor. *)
type node = {
  id : int;
  config : Config.t;
  plans : O.Plan.t array;  (** per select-query plans, slot-indexed *)
  slots : (string, int) Hashtbl.t;
      (** shared qid → slot table (never mutated after [prepare]) *)
  select_cost : float;
  shell_cost : float;
  cost : float;
  size : float;
  parent : int option;
  via : Transform.t option;
  actual_penalty : float;
      (** realized (cost increase)/(space saved) when created *)
  pseudo : Bitset.t;
      (** the select slots whose plan carries a bound-substituted (not
          re-optimized) cost; always empty under the unbounded ledger *)
  mutable untried : candidate list;  (** sorted by increasing penalty *)
  mutable candidates_ready : bool;
}

type prepared = {
  selects : (string * float * Query.select_query) list;
      (** includes select components of updates *)
  selects_arr : (string * float * Query.select_query) array;
      (** [selects] as an array; the slot index of every per-node plan *)
  slots : (string, int) Hashtbl.t;  (** qid → slot *)
  dmls : (float * Query.dml) list;
  has_updates : bool;
}

let prepare (w : Query.workload) : prepared =
  let selects = Query.plannable_selects w in
  let dmls =
    List.map (fun ((e : Query.entry), d) -> (e.weight, d)) (Query.dml_entries w)
  in
  let selects_arr = Array.of_list selects in
  let slots = Hashtbl.create (Array.length selects_arr) in
  Array.iteri (fun i (qid, _, _) -> Hashtbl.replace slots qid i) selects_arr;
  { selects; selects_arr; slots; dmls; has_updates = dmls <> [] }

let plan_of (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Some n.plans.(s)
  | None -> None

let is_pseudo (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Bitset.mem n.pseudo s
  | None -> false

type state = {
  catalog : Relax_catalog.Catalog.t;
  whatif : O.Whatif.t;
  prepared : prepared;
  opts : options;
  pool : Pool.t;  (** worker domains for scoring and re-optimization *)
  mutable nodes : node list;  (** the pool CP, newest first *)
  by_id : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable best : node option;  (** best configuration fitting the budget *)
  mutable iterations : int;
  mutable candidates_trace : int list;  (** per-iteration candidate counts *)
  seen : (string, unit) Hashtbl.t;  (** configuration fingerprints *)
  cbv_cache : (string, float) Hashtbl.t;
      (** CBV memo, read and written on the main domain only *)
  heaps : (string * float) list;
      (** heap bytes of every base table, in catalog order *)
  ledger : Frugal.t;  (** the what-if call ledger of [opts.whatif_budget] *)
  bound_memo : Cost_bound.memo;
      (** the §3.3.2 bounds' access-path selections; scoring tasks read
          it, and only [remember] writes it, on the main domain *)
  rand : Random.State.t;  (** only consulted by the [Random] selection *)
  started : float;
}

(* structures referenced by any plan: what "shrinking" keeps *)
let used_structure_names (plans : O.Plan.t array) =
  let used = Hashtbl.create 32 in
  Array.iter
    (fun plan ->
      O.Plan.iter_accesses
        (fun (a : O.Plan.access_info) ->
          Hashtbl.replace used a.rel ();
          (match a.via_view with
          | Some v -> Hashtbl.replace used (View.name v) ()
          | None -> ());
          List.iter
            (fun (u : O.Plan.index_usage) ->
              Hashtbl.replace used (Index.name u.index) ())
            a.usages)
        plan)
    plans;
  used

(* Heap bytes of every base table, in catalog order: they depend only on
   the catalog, which never changes during a search. *)
let base_heaps catalog =
  let module Cat = Relax_catalog.Catalog in
  let module SM = Relax_physical.Size_model in
  List.map
    (fun name ->
      ( name,
        SM.heap_pages ~rows:(Cat.rows catalog name)
          ~row_width:(Cat.row_width catalog name) ()
        *. SM.default_params.page_size ))
    (Cat.table_names catalog)

(* Heap bytes of the base tables [config] leaves unclustered. *)
let heap_bytes st config =
  List.fold_left
    (fun acc (name, h) ->
      if Config.clustered_on config name <> None then acc else acc +. h)
    0.0 st.heaps

let shell_cost_of st config =
  if st.prepared.dmls = [] then 0.0
  else begin
    let env = O.Env.make st.catalog config in
    List.fold_left
      (fun acc (w, d) -> acc +. (w *. O.Update_cost.shell_cost env config d))
      0.0 st.prepared.dmls
  end

(* CBV: cost of computing a view from scratch under the base configuration.
   Main domain only: a scoring task reads the CBVs phase 1 of
   [rank_candidates] froze into its candidate's context. *)
let cbv st (v : View.t) =
  let name = View.name v in
  match Hashtbl.find_opt st.cbv_cache name with
  | Some c -> c
  | None ->
    let sq = { Query.body = View.definition v; order_by = [] } in
    let plan = O.Optimizer.optimize st.catalog st.opts.base_config sq in
    Hashtbl.replace st.cbv_cache name plan.cost;
    plan.cost

(* Entry cap of the bound memo: well above the ~18.5 k selections the
   longest benchmark tune keeps.  A longer tune starts over at the cap. *)
let bound_memo_cap = 1 lsl 15

(* Merge a walk's misses into the bound memo, oldest first, clearing it
   when full.  Main domain only, between pool batches: the merge order is
   the candidate order, so the table — and with it every hit — is the same
   whatever [opts.jobs]. *)
let remember ~cap (memo : Cost_bound.memo) misses =
  List.iter
    (fun (key, s) ->
      if Hashtbl.length memo >= cap then Hashtbl.reset memo;
      Hashtbl.replace memo key s)
    (List.rev misses)

let estimate_view_rows st (v : View.t) =
  let env = O.Env.make st.catalog st.opts.base_config in
  O.Cardinality.spjg env (View.definition v)

(* ------------------------------------------------------------------ *)
(* node evaluation                                                     *)
(* ------------------------------------------------------------------ *)

(** How one workload slot gets its plan when a configuration is costed. *)
type decision =
  | Keep of O.Plan.t
      (** the parent's plan survives (the §3 re-optimization-avoidance
          rule); it keeps its pseudo status *)
  | Reoptimize
  | Paid  (** re-optimize, one call debited from the ledger *)
  | Cached of O.Plan.t  (** the exact plan, already in the what-if cache *)
  | Point of O.Plan.t
      (** an exact cost without a call: the patched plan provably
          achieves the removal's lower bound *)
  | Bound of O.Plan.t
      (** no call: a valid but possibly suboptimal plan costed from
          bounds; the slot becomes pseudo *)

(* Fixed width of one parallel (re-)optimization batch.  Deliberately
   independent of [opts.jobs]: the §3.5 abort can only land on a batch
   boundary's sequential fold, so the set of what-if calls made — and with
   it every counter, cache state and trace event — is identical whatever
   the parallelism (the determinism guarantee).  It also bounds the work
   wasted past an abort to one batch. *)
let eval_batch = 16

exception Over_limit

(** Cost [config] with one decision per workload slot: the plans are
    produced in [eval_batch]-wide windows on the worker domains, then
    their weighted costs are folded sequentially in workload order from
    [from], so the float accumulation and the abort point do not depend
    on [opts.jobs].  [Paid] slots are debited per window on the main
    domain, so an abort hands the calls later windows never made back to
    the ledger.  Returns the plans, the pseudo slots ([Bound] slots plus
    the [Keep] slots marked in [parent_pseudo]) and the total; raises
    [Over_limit] as soon as the running total exceeds [limit]. *)
let cost_plans st config (decisions : decision array) ~parent_pseudo ~from ~limit =
  let nsel = Array.length decisions in
  let pseudo = Bitset.create nsel in
  let total = ref from in
  let windows = ref [] in
  let base = ref 0 in
  while !base < nsel do
    let window = Array.init (Int.min eval_batch (nsel - !base)) (( + ) !base) in
    Array.iter
      (fun slot ->
        match decisions.(slot) with
        | Paid -> Frugal.debit st.ledger 1
        | _ -> ())
      window;
    let plans =
      Pool.map_array st.pool
        (fun slot ->
          let qid, _, q = st.prepared.selects_arr.(slot) in
          match decisions.(slot) with
          | Keep p | Cached p | Point p | Bound p -> p
          | Reoptimize | Paid -> O.Whatif.plan_select st.whatif config ~qid q)
        window
    in
    Array.iteri
      (fun k (plan : O.Plan.t) ->
        let slot = window.(k) in
        let _, w, _ = st.prepared.selects_arr.(slot) in
        (match decisions.(slot) with
        | Reoptimize | Paid | Cached _ -> Obs.Probe.plan_reoptimized ()
        | Keep _ ->
          Obs.Probe.plan_patched ();
          if Bitset.mem parent_pseudo slot then Bitset.add pseudo slot
        | Point _ ->
          Obs.Probe.plan_patched ();
          Obs.Probe.count "whatif.point_exact"
        | Bound _ ->
          Obs.Probe.plan_patched ();
          Obs.Probe.count "whatif.bound_costed";
          Bitset.add pseudo slot);
        total := !total +. (w *. plan.cost);
        if !total > limit then raise Over_limit)
      plans;
    windows := plans :: !windows;
    base := !base + Array.length window
  done;
  (Array.concat (List.rev !windows), pseudo, !total)

(* The one slot classifier — sequential, on the main domain, so the
   spend schedule is identical at any [jobs].  One pass over the
   workload classifies every query and prices the uncertain ones:

   - unaffected, non-pseudo: the plan survives (free, exact);
   - the unbounded ledger re-optimizes every other slot, so no slot is
     ever pseudo; under a bounded one:
   - warm cache: the exact plan is already known (free, exact);
   - tier 0: a pure removal whose patched plan costs no more than the
     surviving plan — the old cost is a sound lower bound (removal
     shrinks the plan space) and the patched plan achieves it, so the
     patched plan is optimal (free, exact);
   - the rest carry a genuine ΔT interval [lo, hi] with [hi] the
     §3.3.2 patched-plan cost.  The budget goes to the widest weighted
     intervals first — in practice the index-merge evaluations, whose
     upper bounds drift an order of magnitude while removal bounds
     track re-optimization within a percent — and only above a noise
     floor relative to the parent's cost: paying to collapse a narrow
     interval cannot move any later decision.

   A pseudo plan is valid but suboptimal, so it is never silently kept:
   every evaluation gives it a chance to improve — a warm cache entry, a
   budgeted re-optimization, or at least a re-patch against the current
   configuration.

   The node gate: only a node that could become the incumbent best —
   it fits the space budget and the summed interval floor is below the
   best known cost — may spend at all.  Every other node is costed
   entirely from bounds: its cost only feeds the pool trajectory,
   where a sound upper bound is good enough.  (With
   [shrink_configurations] the gate sees the pre-shrink size, so a
   node only the shrink makes fit may be bound-costed — a conservative
   miss, never a wrong best.) *)
let classify st ~(parent : node) ~ctx ~shell ~best_cost config =
  let decisions = Array.map (fun p -> Keep p) parent.plans in
  let lo_total = ref shell and hi_total = ref shell in
  let widths = ref [] in
  Array.iteri
    (fun slot (qid, w, q) ->
      let old_plan = parent.plans.(slot) in
      let parent_pseudo = Bitset.mem parent.pseudo slot in
      let affected = Cost_bound.plan_affected ctx old_plan in
      if (not parent_pseudo) && not affected then begin
        lo_total := !lo_total +. (w *. old_plan.O.Plan.cost);
        hi_total := !hi_total +. (w *. old_plan.O.Plan.cost)
      end
      else if not (Frugal.bounded st.ledger) then decisions.(slot) <- Reoptimize
      else begin
        let lo =
          if parent_pseudo then 0.0
          else Cost_bound.query_lower_bound ctx old_plan
        in
        lo_total := !lo_total +. (w *. lo);
        match
          O.Whatif.find_cached st.whatif config ~qid
            ~tables:q.Query.body.tables
        with
        | Some p ->
          hi_total := !hi_total +. (w *. p.O.Plan.cost);
          decisions.(slot) <- Cached p
        | None -> (
          let patched =
            Cost_bound.patched_plan ~order_by:q.Query.order_by ctx old_plan
          in
          match patched with
          | Some p
            when (not parent_pseudo)
                 && (not ctx.Cost_bound.expands)
                 && Cost_bound.float_leq p.O.Plan.cost old_plan.O.Plan.cost
            ->
            hi_total := !hi_total +. (w *. p.O.Plan.cost);
            decisions.(slot) <- Point p
          | _ ->
            (* the base-configuration plan, pre-costed by the anchoring
               pass, is valid under any configuration: the universal
               fallback for an unpatchable (removed or merged view) plan *)
            let base =
              O.Whatif.find_cached st.whatif st.opts.base_config ~qid
                ~tables:q.Query.body.tables
            in
            let hi =
              match (patched, base) with
              | Some p, _ -> p.O.Plan.cost
              | None, Some b -> b.O.Plan.cost
              | None, None -> old_plan.O.Plan.cost
            in
            hi_total := !hi_total +. (w *. hi);
            (* Unless the budget pays below, store the cheaper of the
               patched plan — valid under [config], its cost the model's
               upper bound — and the base plan.  Either way the stored
               plan is real, so affected-tests and bounds computed from
               it at later relaxations stay sound; it is merely
               suboptimal, which the [pseudo] marker records.  With
               neither (unreachable in practice: the anchoring pass
               pre-optimized every select) degrade to the surviving
               plan — sound only as long as nothing relies on its
               accesses, hence last resort. *)
            decisions.(slot) <-
              Bound
                (match (patched, base) with
                | Some p, Some b -> if b.cost < p.O.Plan.cost then b else p
                | Some p, None | None, Some p -> p
                | None, None -> old_plan);
            widths := (slot, w *. (hi -. lo)) :: !widths)
      end)
    st.prepared.selects_arr;
  (* contender test: worst-case total within [contender_slack] of the
     incumbent best.  A node whose upper bound is far above the best
     cannot be mis-ranked into the recommendation by its bound cost —
     exactness there buys nothing. *)
  let spend_ok =
    !widths <> []
    && Config.total_bytes st.catalog config <= st.opts.space_budget
    && Cost_bound.float_lt !lo_total best_cost
    && !hi_total < best_cost *. Frugal.contender_slack
  in
  if spend_ok then begin
    (* widest weighted interval first; ties resolve to workload order
       (the [widths] list is built in reverse workload order) *)
    let ranked =
      List.stable_sort
        (fun (_, a) (_, b) -> Float.compare b a)
        (List.rev !widths)
    in
    let floor = Frugal.width_floor *. parent.cost in
    let k = ref (Frugal.remaining st.ledger) in
    List.iter
      (fun (slot, width) ->
        if !k > 0 && Cost_bound.float_lt floor width then begin
          decr k;
          decisions.(slot) <- Paid
        end)
      ranked
  end;
  decisions

(** Evaluate a fresh configuration obtained by relaxing [parent] with [tr]:
    cost it from the slot decisions — only the plans the relaxation
    affected are re-costed — and abort as soon as the running total
    exceeds three times the best known cost (§3.5). *)
let evaluate st ~(parent : node) ~(tr : Transform.t) (config : Config.t) :
    node option =
  let ctx =
    Cost_bound.make_context st.catalog ~cbv:(cbv st) ~old_config:parent.config
      ~new_config:config tr
  in
  let best_cost =
    match st.best with Some b -> b.cost | None -> infinity
  in
  let shell = shell_cost_of st config in
  match
    cost_plans st config
      (classify st ~parent ~ctx ~shell ~best_cost config)
      ~parent_pseudo:parent.pseudo ~from:shell
      ~limit:(best_cost *. 3.0)
  with
  | exception Over_limit ->
    Obs.Probe.shortcut_abort ();
    None
  | plans, pseudo, total ->
    let select_cost = total -. shell in
    (* §3.5 shrinking variant: drop structures no surviving plan uses *)
    let config =
      if not st.opts.shrink_configurations then config
      else begin
        let used = used_structure_names plans in
        let keep_index i =
          Config.mem_index st.opts.base_config i
          || Hashtbl.mem used (Index.name i)
          ||
          (* a clustered index is the storage of a used view *)
          (i.clustered && Hashtbl.mem used (Index.owner i))
        in
        let config =
          List.fold_left
            (fun cfg i -> if keep_index i then cfg else Config.remove_index cfg i)
            config (Config.indexes config)
        in
        List.fold_left
          (fun cfg v ->
            if
              Config.mem_view st.opts.base_config v
              || Hashtbl.mem used (View.name v)
            then cfg
            else Config.remove_view cfg v)
          config (Config.views config)
      end
    in
    let size = Config.total_bytes st.catalog config in
    let actual_penalty =
      let d_s = parent.size -. size in
      let d_t = total -. parent.cost in
      if d_s > 0.0 then d_t /. d_s else d_t
    in
    let node =
      {
        id = st.next_id;
        config;
        plans;
        slots = st.prepared.slots;
        select_cost;
        shell_cost = shell;
        cost = total;
        size;
        parent = Some parent.id;
        via = Some tr;
        actual_penalty;
        pseudo;
        untried = [];
        candidates_ready = false;
      }
    in
    st.next_id <- st.next_id + 1;
    Some node

(* A parentless pool node — the root, or the warm-start seed: every plan
   re-optimized, folded from zero with the shell cost added afterwards. *)
let parentless_node st config =
  let nsel = Array.length st.prepared.selects_arr in
  let shell = shell_cost_of st config in
  let plans, pseudo, select_cost =
    cost_plans st config
      (Array.make nsel Reoptimize)
      ~parent_pseudo:(Bitset.create nsel) ~from:0.0 ~limit:infinity
  in
  let node =
    {
      id = st.next_id;
      config;
      plans;
      slots = st.prepared.slots;
      select_cost;
      shell_cost = shell;
      cost = select_cost +. shell;
      size = Config.total_bytes st.catalog config;
      parent = None;
      via = None;
      actual_penalty = 0.0;
      pseudo;
      untried = [];
      candidates_ready = false;
    }
  in
  st.next_id <- st.next_id + 1;
  node

(* ------------------------------------------------------------------ *)
(* candidate ranking (§3.4, §3.6)                                      *)
(* ------------------------------------------------------------------ *)

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

let rank_candidates st (n : node) : candidate list =
  let transforms = Transform.enumerate ~protected:st.opts.base_config n.config in
  List.iter
    (fun tr -> Obs.Probe.transform_generated ~kind:(Transform.kind tr))
    transforms;
  (* index which queries (by slot) use which structures, so each
     transformation only touches the plans it actually affects *)
  let usage : (string, (int * float) list) Hashtbl.t = Hashtbl.create 64 in
  let usage_seen : (string * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add_usage name slot w =
    if not (Hashtbl.mem usage_seen (name, slot)) then begin
      Hashtbl.add usage_seen (name, slot) ();
      let l = Option.value ~default:[] (Hashtbl.find_opt usage name) in
      Hashtbl.replace usage name ((slot, w) :: l)
    end
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
    st.prepared.selects_arr;
  let affected_queries tr =
    let names =
      List.map Index.name (Transform.removed_indexes n.config tr)
      @ List.map View.name (Transform.removed_views tr)
    in
    (* slots sort in workload order, a total order: dedup is exact *)
    List.sort_uniq compare
      (List.concat_map
         (fun name -> Option.value ~default:[] (Hashtbl.find_opt usage name))
         names)
  in
  (* Phase 1, on the main domain: apply each transformation and build its
     costing context, freezing into it the CBV of every removed view an
     affected plan reads (the only views its bounds can ask for).  Contexts
     are plain values — an environment is one too — so the pool may read
     every context this phase builds. *)
  let applied =
    List.filter_map
      (fun tr ->
        match
          Transform.apply ~estimate_rows:(estimate_view_rows st) n.config tr
        with
        | None -> None
        | Some config' ->
          let affected = affected_queries tr in
          let ctx =
            if affected = [] then None
            else begin
              let cbvs =
                List.filter_map
                  (fun v ->
                    let name = View.name v in
                    if Hashtbl.mem usage name then Some (name, cbv st v)
                    else None)
                  (Transform.removed_views tr)
              in
              Some
                (Cost_bound.make_context st.catalog
                   ~cbv:(fun v -> List.assoc (View.name v) cbvs)
                   ~old_config:n.config ~new_config:config' tr)
            end
          in
          Some (tr, config', affected, ctx))
      transforms
  in
  (* The one walk over a candidate's affected plans: fold
     [w × (cost' − cost)] for the (lower, upper) costs [f] gives each
     affected plan, in workload order, from [init], threading the bound
     memo's misses through [f].  Every slot in [affected] uses a structure
     the transformation removes, so [f] always applies. *)
  let walk_affected affected ctx ~init f =
    match ctx with
    | None -> (init, [])
    | Some ctx ->
      List.fold_left
        (fun ((lo, hi), misses) (slot, w) ->
          let plan = n.plans.(slot) in
          let (l, h), misses = f ctx slot plan misses in
          ( ( lo +. (w *. (l -. plan.O.Plan.cost)),
              hi +. (w *. (h -. plan.O.Plan.cost)) ),
            misses ))
        (init, []) affected
  in
  (* the §3.3.2 (lower, upper) ΔT terms of one affected plan, the upper
     one through the bound memo *)
  let bounds ctx slot plan misses =
    let _, _, (sq : Query.select_query) = st.prepared.selects_arr.(slot) in
    let hi, misses =
      Cost_bound.query_bound_memo st.bound_memo misses ~order_by:sq.order_by
        ctx plan
    in
    ((Cost_bound.query_lower_bound ctx plan, hi), misses)
  in
  (* Phase 2, parallel: score each applied transformation — incremental
     size (only the structures that changed are re-measured; heaps come
     from the search's precomputed list), §3.3.2 cost bounds, update-shell
     delta.  A task is a pure function of the node and its candidate: it
     reads only the node's plans, the immutable catalog and heap list,
     the context phase 1 built and the bound memo, which nothing writes
     until the batch is done, and writes no shared table.  It returns the
     memo misses its bounds computed, and, when scored, the candidate
     with its ΔT lower bound and what the sweep needs to refine it. *)
  let score (tr, config', affected, ctx) =
    let removed =
      Index.Set.diff (Config.index_set n.config) (Config.index_set config')
    in
    let added =
      Index.Set.diff (Config.index_set config') (Config.index_set n.config)
    in
    let size' =
      n.size -. heap_bytes st n.config +. heap_bytes st config'
      -. Index.Set.fold
           (fun i a -> a +. Config.index_bytes st.catalog n.config i)
           removed 0.0
      +. Index.Set.fold
           (fun i a -> a +. Config.index_bytes st.catalog config' i)
           added 0.0
    in
    let delta_space = n.size -. size' in
    let (delta_selects_lo, delta_selects), misses =
      walk_affected affected ctx ~init:(0.0, 0.0) bounds
    in
    let delta_shell =
      if st.prepared.dmls = [] then 0.0
      else shell_cost_of st config' -. n.shell_cost
    in
    let delta_cost = delta_selects +. delta_shell in
    ( misses,
      if delta_space <= 0.0 && delta_cost >= 0.0 then None
      else
        Some
          ( { tr; penalty = 0.0; delta_cost; delta_space },
            delta_selects_lo +. delta_shell,
            (config', affected, ctx, delta_shell) ) )
  in
  let scored = Pool.map_array st.pool score (Array.of_list applied) in
  Array.iter
    (fun (misses, _) -> remember ~cap:bound_memo_cap st.bound_memo misses)
    scored;
  let raw = List.filter_map snd (Array.to_list scored) in
  (* skyline filtering for update workloads: drop dominated transformations
     (§3.6: a transformation with lower cost increase AND larger space
     saving dominates) *)
  let raw =
    if not st.prepared.has_updates then raw
    else begin
      let kept = skyline_filter (List.map (fun (c, _, _) -> c) raw) in
      List.filter (fun (c, _, _) -> List.memq c kept) raw
    end
  in
  let over_budget = n.size -. st.opts.space_budget in
  let penalty_of ~delta_space dt =
    if over_budget <= 0.0 then
      (* already fits: only meaningful with updates, ranked by ΔT *)
      dt
    else begin
      let denom = Float.min over_budget delta_space in
      if denom > 0.0 then dt /. denom
      else
        (* non-shrinking while over budget: rank below every shrinking
           candidate, whatever its ΔT *)
        1e12 +. dt
    end
  in
  let with_penalty =
    List.map
      (fun (c, lo, walk) ->
        ( { c with penalty = penalty_of ~delta_space:c.delta_space c.delta_cost },
          lo,
          walk ))
      raw
  in
  let sorted =
    List.sort
      (fun (a, _, _) (b, _, _) -> Float.compare a.penalty b.penalty)
      with_penalty
  in
  let capped = List.filteri (fun i _ -> i < max_candidates_per_node) sorted in
  (* Decide the ranking from ΔT intervals [lo, delta_cost]: a bounded
     ledger spends what-if calls only on candidates straddling the
     decision threshold, widest penalty gap first; the unbounded ledger
     ranks by upper ends (see {!Frugal.sweep}).  Runs sequentially on the
     main domain, so the call sequence — and with it every counter and
     cache state — is identical whatever [opts.jobs]. *)
  let fcands =
    List.map
      (fun (c, lo, walk) ->
        Frugal.cand (c, walk) { Frugal.lo; hi = c.delta_cost })
      capped
  in
  let penalty ~payload ~dt =
    let (c : candidate), _ = payload in
    penalty_of ~delta_space:c.delta_space dt
  in
  (* refinement: re-optimize the affected queries for real, debiting the
     ledger per optimizer call actually executed (cache hits are free);
     queries the budget could not cover keep their model bounds, leaving
     a mixed — but still valid — interval *)
  let refine (fc : _ Frugal.cand) =
    let _, (config', affected, ctx, delta_shell) = fc.Frugal.payload in
    let (lo, hi), misses =
      walk_affected affected ctx ~init:(delta_shell, delta_shell)
        (fun ctx slot plan misses ->
          if Frugal.rank_remaining st.ledger > 0 then begin
            let qid, _, sq = st.prepared.selects_arr.(slot) in
            let calls_before = fst (O.Whatif.stats st.whatif) in
            let plan' = O.Whatif.plan_select st.whatif config' ~qid sq in
            Frugal.debit st.ledger
              (fst (O.Whatif.stats st.whatif) - calls_before);
            ((plan'.O.Plan.cost, plan'.O.Plan.cost), misses)
          end
          else bounds ctx slot plan misses)
    in
    remember ~cap:bound_memo_cap st.bound_memo misses;
    fc.Frugal.ival <-
      Frugal.tighten_with { Frugal.lo; hi } ~advisory:fc.Frugal.ival
  in
  Frugal.sweep st.ledger ~penalty ~refine fcands;
  let updated =
    List.map
      (fun (fc : _ Frugal.cand) ->
        let c, _ = fc.Frugal.payload in
        let dt = fc.Frugal.ival.Frugal.hi in
        { c with delta_cost = dt; penalty = penalty_of ~delta_space:c.delta_space dt })
      fcands
  in
  List.stable_sort (fun a b -> Float.compare a.penalty b.penalty) updated

let ensure_candidates st n =
  if not n.candidates_ready then begin
    n.untried <- Obs.Probe.span "search.rank_candidates" (fun () -> rank_candidates st n);
    n.candidates_ready <- true
  end

(* ------------------------------------------------------------------ *)
(* configuration choice (§3.4 / §3.6)                                  *)
(* ------------------------------------------------------------------ *)

let has_untried st n =
  ensure_candidates st n;
  n.untried <> []

(* count without forcing lazy candidate computation *)
let untried_ready_count st =
  List.fold_left
    (fun acc n ->
      if n.candidates_ready then acc + List.length n.untried
      else acc)
    0 st.nodes

let find_node st id = Hashtbl.find st.by_id id

(* chain of ancestors from [n] (inclusive) to the root *)
let chain st n =
  let rec go acc n =
    match n.parent with
    | None -> List.rev (n :: acc)
    | Some p -> go (n :: acc) (find_node st p)
  in
  go [] n

let parent_cost st n =
  match n.parent with None -> infinity | Some p -> (find_node st p).cost

let pick_configuration st ~(last : node) : node option =
  let b = st.opts.space_budget in
  (* Heuristic 1: keep relaxing the last configuration while it is over
     budget (or, with updates, while the relaxation reduced its cost). *)
  let continue_last =
    last.size > b
    || (st.prepared.has_updates && last.cost < parent_cost st last)
  in
  if continue_last && has_untried st last then Some last
  else begin
    (* Heuristic 2: along the chain of the best fitting configuration, pick
       the node whose relaxation realized the largest penalty. *)
    let from_chain =
      match st.best with
      | None -> None
      | Some best ->
        let ch = chain st best in
        let edges =
          List.filter_map
            (fun n ->
              match n.parent with
              | Some p ->
                let parent = find_node st p in
                if has_untried st parent then Some (n.actual_penalty, parent)
                else None
              | None -> None)
            ch
        in
        (match List.sort (fun (a, _) (b', _) -> Float.compare b' a) edges with
        | (_, parent) :: _ -> Some parent
        | [] -> None)
    in
    match from_chain with
    | Some n -> Some n
    | None ->
      (* Heuristic 3: the cheapest configuration with work left (checked in
         cost order so candidate ranking is only forced until a hit). *)
      let sorted =
        List.sort (fun a b -> Float.compare a.cost b.cost) st.nodes
      in
      List.find_opt (has_untried st) sorted
  end

(* Pop one candidate from the node's untried list, per the selection
   strategy (§3.4 default: minimum penalty = head of the sorted list). *)
let pick_candidate st (c : node) : candidate option =
  match c.untried with
  | [] -> None
  | l ->
    let minimize f =
      List.fold_left (fun acc x -> if f x < f acc then x else acc) (List.hd l) l
    in
    let chosen =
      match st.opts.selection with
      | Penalty -> List.hd l
      | Cost_greedy -> minimize (fun x -> x.delta_cost)
      | Space_greedy -> minimize (fun x -> -.x.delta_space)
      | Random _ -> List.nth l (Random.State.int st.rand (List.length l))
    in
    c.untried <- List.filter (fun x -> x != chosen) l;
    Some chosen

(* §3.5 variant: greedily pile further candidates of the same node onto a
   partially-relaxed configuration.  Conflicting transformations (ones whose
   structures are already gone) simply fail to apply and are skipped. *)
let extend_with_transforms st (c : node) config k =
  let applied = ref [] in
  let config = ref config in
  let rec go remaining k =
    match (remaining, k) with
    | [], _ | _, 0 -> ()
    | cand :: rest, k -> (
      match
        Transform.apply ~estimate_rows:(estimate_view_rows st) !config cand.tr
      with
      | Some cfg' ->
        config := cfg';
        applied := cand :: !applied;
        go rest (k - 1)
      | None -> go rest k)
  in
  go c.untried k;
  c.untried <- List.filter (fun x -> not (List.memq x !applied)) c.untried;
  !config

(* ------------------------------------------------------------------ *)
(* the main loop (Figure 5)                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  initial : node;  (** the optimal configuration's node *)
  best : node option;  (** best configuration within the budget *)
  explored : (float * float * float) list;
      (** (size, select+shell cost, actual penalty) of every evaluated node *)
  best_trace : (int * float) list;
      (** (iteration, cost) each time a new best valid configuration was
          found: the tuner's anytime behaviour *)
  iterations : int;
  candidates_per_iteration : int list;
  optimizer_calls : int;
  cache_hits : int;
  whatif : O.Whatif.t;
      (** the search's what-if interface, cache warm with every plan the
          run optimized — reusing it to re-cost the recommended
          configuration avoids a second round of optimizer calls *)
}

(* One JSONL event per search iteration: the chosen transformation, its
   predicted ΔT/ΔS and penalty, the realized cost/size after evaluation and
   the bound-drift ratio (§3.3.2 upper bound vs. actual re-optimized cost;
   a drift ≥ 1 means the bound held). *)
let emit_iteration (st : state) ~(parent : node) ~(cand : candidate) ~status
    ~(node : node option) =
  Obs.Probe.emit (fun () ->
      let open Obs.Json in
      let predicted_cost = parent.cost +. cand.delta_cost in
      let predicted_size = parent.size -. cand.delta_space in
      let realized =
        match node with
        | None -> [ ("node", Null); ("actual_cost", Null); ("actual_size", Null); ("bound_drift", Null) ]
        | Some n ->
          [ ("node", Int n.id);
            ("actual_cost", Float n.cost);
            ("actual_size", Float n.size);
            ("bound_drift", Float (if n.cost > 0.0 then predicted_cost /. n.cost else 1.0));
          ]
      in
      Obj
        ([ ("event", String "iteration");
           ("iteration", Int st.iterations);
           ("parent", Int parent.id);
           ("transform", String (Fmt.str "%a" Transform.pp cand.tr));
           ("kind", String (Transform.kind cand.tr));
           ("penalty", Float cand.penalty);
           ("delta_cost", Float cand.delta_cost);
           ("delta_space", Float cand.delta_space);
           ("predicted_cost", Float predicted_cost);
           ("predicted_size", Float predicted_size);
           ("outcome", String status);
         ]
        @ realized
        @ [ ("pool", Int (List.length st.nodes));
            ("best_cost",
             match st.best with Some b -> Float b.cost | None -> Null);
          ]))

(** Run the relaxation search from an initial (optimal) configuration.
    When [obs] is given it is installed as the ambient recorder for the
    duration of the search, so every probe in the optimizer stack below
    reports into it. *)
let run ?obs catalog ~(workload : Query.workload) ~(initial : Config.t)
    (opts : options) : outcome =
  (match obs with
  | Some r -> Obs.Recorder.with_ambient r
  | None -> fun f -> f ())
  @@ fun () ->
  let whatif =
    match opts.whatif with Some w -> w | None -> O.Whatif.create catalog
  in
  (* a reused interface arrives with history; report this run's deltas *)
  let calls0, hits0 = O.Whatif.stats whatif in
  let prepared = prepare workload in
  let pool = Pool.create ~jobs:opts.jobs in
  Fun.protect
    ~finally:(fun () ->
      let pst = Pool.stats pool in
      Obs.Probe.count_n "pool.jobs" pst.Pool.pool_jobs;
      Obs.Probe.count_n "pool.tasks" pst.Pool.tasks;
      Obs.Probe.count_n "pool.batches" pst.Pool.batches;
      Array.iteri
        (fun i busy ->
          Obs.Probe.count_n
            (Printf.sprintf "pool.domain%d.busy_ms" i)
            (int_of_float (busy *. 1000.0)))
        pst.Pool.busy_s;
      Pool.shutdown pool)
  @@ fun () ->
  let st =
    {
      catalog;
      whatif;
      prepared;
      opts;
      pool;
      nodes = [];
      by_id = Hashtbl.create 64;
      next_id = 0;
      best = None;
      iterations = 0;
      candidates_trace = [];
      seen = Hashtbl.create 64;
      cbv_cache = Hashtbl.create 16;
      heaps = base_heaps catalog;
      ledger = Frugal.create opts.whatif_budget;
      bound_memo = Hashtbl.create 1024;
      rand =
        Random.State.make
          [| (match opts.selection with Random seed -> seed | _ -> 0) |];
      started = Obs.Clock.now ();
    }
  in
  (* Bounded ledgers pre-optimize every select under the protected base
     configuration.  The base configuration is a subset of every
     configuration the search visits, so its plans are valid — and their
     costs sound upper bounds — everywhere: they are the universal
     fallback when the budget cannot pay for a re-optimization and the
     patched plan drifts loose.  The same cache entries serve the tuner's
     base-configuration report, so the pass costs the run nothing net. *)
  if Frugal.bounded st.ledger then
    ignore
      (Pool.map_array pool
         (fun (qid, _, q) -> O.Whatif.plan_select whatif opts.base_config ~qid q)
         prepared.selects_arr);
  (* Admission: every evaluated node joins the pool, and one that fits
     the budget and beats the incumbent becomes the best. *)
  let best_trace = ref [] in
  let admit ~iteration node =
    st.nodes <- node :: st.nodes;
    Hashtbl.replace st.by_id node.id node;
    let better =
      node.size <= opts.space_budget
      && match st.best with None -> true | Some b -> node.cost < b.cost
    in
    if better then begin
      st.best <- Some node;
      best_trace := (iteration, node.cost) :: !best_trace
    end
  in
  Hashtbl.replace st.seen (Config.fingerprint initial) ();
  let root = parentless_node st initial in
  admit ~iteration:0 root;
  (* Warm start: seed the previously deployed configuration as a second
     parentless pool node.  On an incremental re-tune its plans are
     already in the (shared) cache, so the evaluation is nearly free, and
     installing it as the incumbent best means shortcut evaluation and the
     frugal contender gate prune against a realistic cost from iteration
     zero — the mechanism behind warm re-tunes spending fewer optimizer
     calls than cold ones. *)
  (match opts.initial_config with
  | None -> ()
  | Some cfg when Hashtbl.mem st.seen (Config.fingerprint cfg) -> ()
  | Some cfg ->
    Hashtbl.replace st.seen (Config.fingerprint cfg) ();
    admit ~iteration:0 (parentless_node st cfg));
  let time_ok () =
    match opts.time_budget_s with
    | None -> true
    | Some s -> Obs.Clock.elapsed_s ~since:st.started < s
  in
  let last = ref root in
  (try
     while st.iterations < opts.max_iterations && time_ok () do
       match pick_configuration st ~last:!last with
       | None -> raise Exit
       | Some c ->
         Obs.Probe.span "search.iteration" @@ fun () ->
         (
         ensure_candidates st c;
         st.candidates_trace <- untried_ready_count st :: st.candidates_trace;
         match pick_candidate st c with
         | None -> () (* will be skipped next pick *)
         | Some cand ->
           st.iterations <- st.iterations + 1;
           Obs.Probe.iteration ();
           let applied =
             Transform.apply ~estimate_rows:(estimate_view_rows st) c.config
               cand.tr
           in
           let status, produced =
             match applied with
             | None -> ("inapplicable", None)
             | Some config' -> (
               (* §3.5 variant: pile up to k−1 further non-conflicting
                  transformations before evaluating *)
               let config' =
                 if opts.transforms_per_iteration <= 1 then config'
                 else extend_with_transforms st c config'
                        (opts.transforms_per_iteration - 1)
               in
               Obs.Probe.transform_applied ~kind:(Transform.kind cand.tr);
               let fp = Config.fingerprint config' in
               if Hashtbl.mem st.seen fp then ("duplicate", None)
               else begin
                 Hashtbl.replace st.seen fp ();
                 match
                   Obs.Probe.span "search.evaluate" (fun () ->
                       evaluate st ~parent:c ~tr:cand.tr config')
                 with
                 | None -> ("shortcut", None) (* shortcut-pruned *)
                 | Some node ->
                   Obs.Probe.config_evaluated ();
                   admit ~iteration:st.iterations node;
                   last := node;
                   ("evaluated", Some node)
               end)
           in
           Obs.Probe.pool_size (List.length st.nodes);
           emit_iteration st ~parent:c ~cand ~status ~node:produced;
           match st.opts.on_iteration with
           | None -> ()
           | Some check ->
             check
               {
                 it_iteration = st.iterations;
                 it_parent = c.config;
                 it_parent_cost = c.cost;
                 it_parent_size = c.size;
                 it_transform = cand.tr;
                 it_applied = applied;
                 it_predicted_delta_cost = cand.delta_cost;
                 it_predicted_delta_space = cand.delta_space;
                 it_penalty = cand.penalty;
                 it_outcome = status;
                 it_result =
                   Option.map (fun n -> (n.config, n.cost, n.size)) produced;
               })
     done
   with Exit -> ());
  (* Endgame re-ranking.  The loop compared configurations by
     bound-substituted costs, so among close contenders the best node may
     be mis-identified.  Re-cost the cheapest valid configurations
     honestly — pseudo plans only, through the warm cache, cheapest
     first, whole nodes only — spending what is left of the budget, then
     re-pick the best.  The ledger is debited on the main domain, so the
     spend sequence (and hence the recommendation) is identical at any
     [jobs].  Under the unbounded ledger no node has a pseudo slot, so
     nothing changes. *)
  (let by_cost a b =
     match Float.compare a.cost b.cost with
     | 0 -> Int.compare a.id b.id
     | c -> c
   in
   let contenders =
     List.sort by_cost
       (List.filter (fun n -> n.size <= opts.space_budget) st.nodes)
   in
   let recost (n : node) : node =
     if Bitset.is_empty n.pseudo then n
     else begin
       let decisions =
         Array.mapi
           (fun slot plan ->
             if not (Bitset.mem n.pseudo slot) then Keep plan
             else
               let qid, _, q = st.prepared.selects_arr.(slot) in
               match
                 O.Whatif.find_cached st.whatif n.config ~qid
                   ~tables:q.Query.body.tables
               with
               | Some p -> Cached p
               | None -> Reoptimize)
           n.plans
       in
       (* cached plans are free; commit only when the ledger covers
          every miss — partial honesty would spend calls without making
          the node's cost comparable to fully honest ones *)
       let misses =
         Array.fold_left
           (fun k d -> match d with Reoptimize -> k + 1 | _ -> k)
           0 decisions
       in
       if misses > Frugal.remaining st.ledger then n
       else begin
         Frugal.debit st.ledger misses;
         Obs.Probe.count_n "whatif.endgame_spent" misses;
         let plans, pseudo, _ =
           cost_plans st n.config decisions ~parent_pseudo:n.pseudo
             ~from:0.0 ~limit:infinity
         in
         let delta = ref 0.0 in
         Array.iteri
           (fun slot (_, w, _) ->
             if Bitset.mem n.pseudo slot then
               delta :=
                 !delta
                 +. (w *. (plans.(slot).O.Plan.cost -. n.plans.(slot).O.Plan.cost)))
           st.prepared.selects_arr;
         {
           n with
           plans;
           select_cost = n.select_cost +. !delta;
           cost = n.cost +. !delta;
           pseudo;
         }
       end
     end
   in
   let replaced = Hashtbl.create 16 in
   List.iter
     (fun n ->
       let n' = recost n in
       if n' != n then Hashtbl.replace replaced n.id n')
     contenders;
   if Hashtbl.length replaced > 0 then begin
     st.nodes <-
       List.map
         (fun n ->
           match Hashtbl.find_opt replaced n.id with
           | Some n' ->
             Hashtbl.replace st.by_id n.id n';
             n'
           | None -> n)
         st.nodes;
     let best =
       match
         List.sort by_cost
           (List.filter (fun n -> n.size <= opts.space_budget) st.nodes)
       with
       | [] -> None
       | n :: _ -> Some n
     in
     match best with
     | None -> ()
     | Some n ->
       let changed =
         match st.best with
         | None -> true
         | Some b -> b.id <> n.id || not (Cost_bound.float_eq b.cost n.cost)
       in
       st.best <- Some n;
       if changed then best_trace := (st.iterations, n.cost) :: !best_trace
   end);
  let calls, hits = O.Whatif.stats whatif in
  let calls = calls - calls0 and hits = hits - hits0 in
  {
    initial = root;
    best = st.best;
    explored =
      List.rev_map (fun n -> (n.size, n.cost, n.actual_penalty)) st.nodes;
    best_trace = List.rev !best_trace;
    iterations = st.iterations;
    candidates_per_iteration = List.rev st.candidates_trace;
    optimizer_calls = calls;
    cache_hits = hits;
    whatif;
  }
