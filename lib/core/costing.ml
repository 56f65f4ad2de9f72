(** Node costing (§3.3, §3.5): the costing handle, the node record and
    the one way a node is costed (documented in the interface). *)

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

type slot_set = Bitset.t

(* [prepared] and [node] are documented in the interface *)
type prepared = {
  selects_arr : (string * float * Query.select_query) array;
  slots : (string, int) Hashtbl.t;
  dmls : (float * Query.dml) list;
  has_updates : bool;
}

let prepare (w : Query.workload) : prepared =
  let selects_arr = Array.of_list (Query.plannable_selects w) in
  let dmls =
    List.map (fun ((e : Query.entry), d) -> (e.weight, d)) (Query.dml_entries w)
  in
  let slots = Hashtbl.create (Array.length selects_arr) in
  Array.iteri (fun i (qid, _, _) -> Hashtbl.replace slots qid i) selects_arr;
  { selects_arr; slots; dmls; has_updates = dmls <> [] }

type node = {
  id : int;
  config : Config.t;
  plans : O.Plan.t array;
  slots : (string, int) Hashtbl.t;
  select_cost : float;
  shells : float array;
  shell_cost : float;
  cost : float;
  size : float;
  heap : float;
  parent : int option;
  via : Transform.t list;
  actual_penalty : float;
  pseudo : Bitset.t;
}

let plan_of (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Some n.plans.(s)
  | None -> None

let is_pseudo (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Bitset.mem n.pseudo s
  | None -> false

type t = {
  catalog : Relax_catalog.Catalog.t;
  whatif : O.Whatif.t;
  prepared : prepared;
  pool : Pool.t;  (** the domains for ranking and re-optimization *)
  base_config : Config.t;
  space_budget : float;
  shrink : bool;
  ledger : Frugal.t;  (** the what-if call ledger of the run's budget *)
  cbv_cache : (string, float) Hashtbl.t;
      (** CBV memo, read and written on the main domain only *)
  heaps : (string * float) list;
      (** heap bytes of every base table, in catalog order *)
  bound_memo : Cost_bound.memo;
      (** the §3.3.2 bounds' access-path selections; scoring tasks read
          it, and only [Ranking.remember] writes it, on the main domain *)
  mutable next_id : int;
}

let catalog h = h.catalog
let prepared h = h.prepared
let pool h = h.pool
let base_config h = h.base_config
let space_budget h = h.space_budget
let bound_memo h = h.bound_memo

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

let create catalog ~whatif ~pool ~base_config ~space_budget ~shrink
    ~whatif_budget prepared =
  let h =
    {
      catalog;
      whatif;
      prepared;
      pool;
      base_config;
      space_budget;
      shrink;
      ledger = Frugal.create whatif_budget;
      cbv_cache = Hashtbl.create 16;
      heaps = base_heaps catalog;
      bound_memo = Hashtbl.create 1024;
      next_id = 0;
    }
  in
  (* Bounded ledgers pre-optimize every select under the protected base
     configuration.  The base configuration is a subset of every
     configuration the search visits, so its plans are valid — and their
     costs sound upper bounds — everywhere: they are the universal
     fallback when the budget cannot pay for a re-optimization and the
     patched plan drifts loose.  The same cache entries serve the tuner's
     base-configuration report, so the pass costs the run nothing net. *)
  if Frugal.bounded h.ledger then
    ignore
      (Pool.map_array pool
         (fun (qid, _, q) -> O.Whatif.plan_select whatif base_config ~qid q)
         prepared.selects_arr);
  h

(* Heap bytes of the base tables [config] leaves unclustered. *)
let heap_bytes h config =
  List.fold_left
    (fun acc (name, b) ->
      if Config.clustered_on config name <> None then acc else acc +. b)
    0.0 h.heaps

(* The one pricing of update shells: the unweighted §3.6 shell cost of
   each update statement under [config], in [dmls] order, and their
   weighted sum, folded in that order.  [known k d] is statement [k]'s
   term when the caller already knows it. *)
let price_shells ?(known = fun _ _ -> None) catalog dmls config =
  match dmls with
  | [] -> ([||], 0.0)
  | dmls ->
    let env = O.Env.make catalog config in
    let shells =
      Array.of_list
        (List.mapi
           (fun k (_, d) ->
             match known k d with
             | Some c -> c
             | None -> O.Update_cost.shell_cost env config d)
           dmls)
    in
    let sum = ref 0.0 in
    List.iteri (fun k (w, _) -> sum := !sum +. (w *. shells.(k))) dmls;
    (shells, !sum)

(* CBV: cost of computing a view from scratch under the base configuration.
   Main domain only: a pool task reads the CBVs ranking's first phase
   froze into its candidate's CBV list. *)
let cbv h (v : View.t) =
  let name = View.name v in
  match Hashtbl.find_opt h.cbv_cache name with
  | Some c -> c
  | None ->
    let sq = { Query.body = View.definition v; order_by = [] } in
    let plan = O.Optimizer.optimize h.catalog h.base_config sq in
    Hashtbl.replace h.cbv_cache name plan.cost;
    plan.cost

let estimate_view_rows h (v : View.t) =
  let env = O.Env.make h.catalog h.base_config in
  O.Cardinality.spjg env (View.definition v)

(* ------------------------------------------------------------------ *)
(* the ledger, as ranking spends it                                    *)
(* ------------------------------------------------------------------ *)

let sweep h ~penalty ~refine cands = Frugal.sweep h.ledger ~penalty ~refine cands

let rank_plan h config ~slot =
  if Frugal.rank_remaining h.ledger > 0 then begin
    let qid, _, sq = h.prepared.selects_arr.(slot) in
    let calls_before = fst (O.Whatif.stats h.whatif) in
    let plan = O.Whatif.plan_select h.whatif config ~qid sq in
    Frugal.debit h.ledger (fst (O.Whatif.stats h.whatif) - calls_before);
    Some plan
  end
  else None

(* ------------------------------------------------------------------ *)
(* node evaluation                                                     *)
(* ------------------------------------------------------------------ *)

(** How one workload slot gets its plan when a configuration is costed. *)
type decision =
  | Keep of O.Plan.t
      (** the parent's plan survives (the §3 re-optimization-avoidance
          rule); only an exact plan is ever kept *)
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
   independent of the pool's width: the §3.5 abort can only land on a
   batch boundary's sequential fold, so the set of what-if calls made —
   and with it every counter, cache state and trace event — is identical
   whatever the parallelism (the determinism guarantee).  It also bounds
   the work wasted past an abort to one batch. *)
let eval_batch = 16

exception Over_limit

(** Cost [config] with one decision per workload slot: the plans are
    produced in [eval_batch]-wide pool batches, then
    their weighted costs are folded sequentially in workload order from
    [from], so the float accumulation and the abort point do not depend
    on the pool's width.  [Paid] slots are debited per window on the main
    domain, so an abort hands the calls later windows never made back to
    the ledger.  Returns the plans, the pseudo slots (the [Bound] ones)
    and the total; raises [Over_limit] as soon as the running total
    exceeds [limit]. *)
let cost_plans h config (decisions : decision array) ~from ~limit =
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
        | Paid -> Frugal.debit h.ledger 1
        | _ -> ())
      window;
    let plans =
      Pool.map_array h.pool
        (fun slot ->
          let qid, _, q = h.prepared.selects_arr.(slot) in
          match decisions.(slot) with
          | Keep p | Cached p | Point p | Bound p -> p
          | Reoptimize | Paid -> O.Whatif.plan_select h.whatif config ~qid q)
        window
    in
    Array.iteri
      (fun k (plan : O.Plan.t) ->
        let slot = window.(k) in
        let _, w, _ = h.prepared.selects_arr.(slot) in
        (match decisions.(slot) with
        | Reoptimize | Paid | Cached _ -> Obs.Probe.plan_reoptimized ()
        | Keep _ -> Obs.Probe.plan_patched ()
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
   spend schedule is identical at any pool width.  One pass over the
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
   where a sound upper bound is good enough.  (With shrinking on, the
   gate sees the pre-shrink size, so a node only the shrink makes fit
   may be bound-costed — a conservative miss, never a wrong best.) *)
let classify h ~(parent : node) ~ctx ~shell ~best_cost config =
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
      else if not (Frugal.bounded h.ledger) then decisions.(slot) <- Reoptimize
      else begin
        let lo =
          if parent_pseudo then 0.0
          else Cost_bound.query_lower_bound ctx old_plan
        in
        lo_total := !lo_total +. (w *. lo);
        match
          O.Whatif.find_cached h.whatif config ~qid
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
              O.Whatif.find_cached h.whatif h.base_config ~qid
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
    h.prepared.selects_arr;
  (* contender test: worst-case total within [contender_slack] of the
     incumbent best.  A node whose upper bound is far above the best
     cannot be mis-ranked into the recommendation by its bound cost —
     exactness there buys nothing. *)
  let spend_ok =
    !widths <> []
    && Config.total_bytes h.catalog config <= h.space_budget
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
    let k = ref (Frugal.remaining h.ledger) in
    List.iter
      (fun (slot, width) ->
        if !k > 0 && Cost_bound.float_lt floor width then begin
          decr k;
          decisions.(slot) <- Paid
        end)
      ranked
  end;
  decisions

(* §3.5 shrinking variant: drop the structures no plan uses *)
let shrink h (plans : O.Plan.t array) config =
  let used = Hashtbl.create 32 in
  Array.iter
    (O.Plan.iter_accesses (fun (a : O.Plan.access_info) ->
         Hashtbl.replace used a.rel ();
         Option.iter (fun v -> Hashtbl.replace used (View.name v) ()) a.via_view;
         List.iter
           (fun (u : O.Plan.index_usage) ->
             Hashtbl.replace used (Index.name u.index) ())
           a.usages))
    plans;
  let keep_index i =
    Config.mem_index h.base_config i
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
      if Config.mem_view h.base_config v || Hashtbl.mem used (View.name v)
      then cfg
      else Config.remove_view cfg v)
    config (Config.views config)

let cost_node h ~best ~(parent : node option) ~steps config : node option =
  let shells, shell = price_shells h.catalog h.prepared.dmls config in
  (* a child's fold starts from its shell cost, so the abort sees the
     whole cost; a parentless node adds it after its selects *)
  let decisions, from, limit =
    match parent with
    | None ->
      (Array.make (Array.length h.prepared.selects_arr) Reoptimize, 0.0, infinity)
    | Some parent ->
      let ctx =
        Cost_bound.make_context h.catalog ~cbv:(cbv h) ~new_config:config
          steps
      in
      let best_cost = match best with Some b -> b.cost | None -> infinity in
      (classify h ~parent ~ctx ~shell ~best_cost config, shell, best_cost *. 3.0)
  in
  match cost_plans h config decisions ~from ~limit with
  | exception Over_limit ->
    Obs.Probe.shortcut_abort ();
    None
  | plans, pseudo, total ->
    let select_cost = total -. from in
    let kept =
      if h.shrink && Option.is_some parent then shrink h plans config
      else config
    in
    let shells, shell_cost, cost =
      if kept == config then (shells, shell, total +. (shell -. from))
      else begin
        let shells, shell = price_shells h.catalog h.prepared.dmls kept in
        (shells, shell, select_cost +. shell)
      end
    in
    let size = Config.total_bytes h.catalog kept in
    let actual_penalty =
      match parent with
      | None -> 0.0
      | Some p ->
        let d_s = p.size -. size in
        let d_t = cost -. p.cost in
        if d_s > 0.0 then d_t /. d_s else d_t
    in
    let node =
      {
        id = h.next_id;
        config = kept;
        plans;
        slots = h.prepared.slots;
        select_cost;
        shells;
        shell_cost;
        cost;
        size;
        heap = heap_bytes h kept;
        parent = Option.map (fun p -> p.id) parent;
        via = List.map snd steps;
        actual_penalty;
        pseudo;
      }
    in
    h.next_id <- h.next_id + 1;
    Some node

let recost_exact h (n : node) : node option =
  if Bitset.is_empty n.pseudo then None
  else begin
    let decisions =
      Array.mapi
        (fun slot plan ->
          if not (Bitset.mem n.pseudo slot) then Keep plan
          else
            let qid, _, q = h.prepared.selects_arr.(slot) in
            match
              O.Whatif.find_cached h.whatif n.config ~qid
                ~tables:q.Query.body.tables
            with
            | Some p -> Cached p
            | None -> Reoptimize)
        n.plans
    in
    (* cached plans are free; commit only when the ledger covers every
       miss — partial honesty would spend calls without making the node's
       cost comparable to fully honest ones *)
    let misses =
      Array.fold_left
        (fun k d -> match d with Reoptimize -> k + 1 | _ -> k)
        0 decisions
    in
    if misses > Frugal.remaining h.ledger then None
    else begin
      Frugal.debit h.ledger misses;
      Obs.Probe.count_n "whatif.endgame_spent" misses;
      let plans, pseudo, _ =
        cost_plans h n.config decisions ~from:0.0 ~limit:infinity
      in
      let delta = ref 0.0 in
      Array.iteri
        (fun slot (_, w, _) ->
          if Bitset.mem n.pseudo slot then
            delta :=
              !delta
              +. (w *. (plans.(slot).O.Plan.cost -. n.plans.(slot).O.Plan.cost)))
        h.prepared.selects_arr;
      Some
        {
          n with
          plans;
          select_cost = n.select_cost +. !delta;
          cost = n.cost +. !delta;
          pseudo;
        }
    end
  end
