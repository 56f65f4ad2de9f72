(** The relaxation-based search (§3.2–§3.6, Figure 5): the loop.

    The search starts from the optimal configuration of §2 and repeatedly
    relaxes configurations from a pool.  The template's two open choices are
    instantiated with the paper's heuristics:

    - {e which transformation} (line 6): the head of the node's ranking
      ({!Ranking.rank_candidates}: least
      [penalty = ΔT / min(Space(C) − B, ΔS)], skyline-filtered with
      updates, ΔT alone once under budget, §3.6), or the ablation's
      alternatives;
    - {e which configuration} (line 5): keep relaxing the last one until it
      fits (with updates: or while relaxation keeps reducing its cost); then
      revisit the chain at the largest actual penalty; finally fall back to
      the cheapest configuration with untried transformations (§3.4).

    Every node is costed through one {!Costing.t} handle, which also
    re-costs the closest contenders honestly at the end. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer
module Obs = Relax_obs
module Pool = Relax_parallel.Pool

(** How line 6 of Figure 5 picks among ranked candidates.  [Penalty] is the
    paper's heuristic (§3.4); the others exist for the ablation study. *)
type selection =
  | Penalty  (** minimize ΔT / min(Space − B, ΔS) *)
  | Cost_greedy  (** minimize ΔT only (ignores space pressure) *)
  | Space_greedy  (** maximize ΔS only (ignores cost) *)
  | Random of int  (** uniformly random applicable transformation (seeded) *)

type node = Costing.node

(** Everything a differential checker needs to replay one iteration of the
    search against independent oracles (see [Relax_check]).  [it_applied]
    is the configuration right after applying [it_transform] to the parent
    — before the §3.5 multi-transformation extension and shrinking — so a
    checker can re-derive it and compare; [it_result] is the evaluated
    node when the outcome is ["evaluated"]. *)
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
  it_result : node option;  (** the evaluated node *)
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

type prepared = Costing.prepared

let prepare = Costing.prepare

type state = {
  costing : Costing.t;
  opts : options;
  mutable nodes : node list;  (** the pool CP, newest first *)
  by_id : (int, node) Hashtbl.t;
  untried : (int, Ranking.candidate list) Hashtbl.t;
      (** per ranked node id, its untried candidates by increasing
          penalty; a node is ranked on first demand *)
  mutable best : node option;  (** best configuration fitting the budget *)
  mutable iterations : int;
  mutable candidates_trace : int list;  (** per-iteration candidate counts *)
  seen : (string, unit) Hashtbl.t;  (** configuration fingerprints *)
  rand : Random.State.t;  (** only consulted by the [Random] selection *)
  started : float;
}

(* ------------------------------------------------------------------ *)
(* configuration choice (§3.4 / §3.6)                                  *)
(* ------------------------------------------------------------------ *)

let untried st (n : node) =
  match Hashtbl.find_opt st.untried n.id with
  | Some l -> l
  | None ->
    let l =
      Obs.Probe.span "search.rank_candidates" (fun () ->
          Ranking.rank_candidates st.costing n)
    in
    Hashtbl.replace st.untried n.id l;
    l

let has_untried st n = untried st n <> []

(* count without forcing lazy candidate computation *)
let untried_ready_count st =
  List.fold_left
    (fun acc (n : node) ->
      match Hashtbl.find_opt st.untried n.id with
      | Some l -> acc + List.length l
      | None -> acc)
    0 st.nodes

let find_node st id = Hashtbl.find st.by_id id

(* chain of ancestors from [n] (inclusive) to the root *)
let chain st (n : node) =
  let rec go acc (n : node) =
    match n.parent with
    | None -> List.rev (n :: acc)
    | Some p -> go (n :: acc) (find_node st p)
  in
  go [] n

let parent_cost st (n : node) =
  match n.parent with None -> infinity | Some p -> (find_node st p).cost

let pick_configuration st ~(last : node) : node option =
  let b = st.opts.space_budget in
  (* Heuristic 1: keep relaxing the last configuration while it is over
     budget (or, with updates, while the relaxation reduced its cost). *)
  let continue_last =
    last.size > b
    || ((Costing.prepared st.costing).has_updates
       && last.cost < parent_cost st last)
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
            (fun (n : node) ->
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
        List.sort (fun (a : node) (b : node) -> Float.compare a.cost b.cost)
          st.nodes
      in
      List.find_opt (has_untried st) sorted
  end

(* Pop one candidate from the node's untried list, per the selection
   strategy (§3.4 default: minimum penalty = head of the sorted list). *)
let pick_candidate st (c : node) : Ranking.candidate option =
  match untried st c with
  | [] -> None
  | l ->
    let minimize f =
      List.fold_left (fun acc x -> if f x < f acc then x else acc) (List.hd l) l
    in
    let chosen =
      match st.opts.selection with
      | Penalty -> List.hd l
      | Cost_greedy -> minimize (fun (x : Ranking.candidate) -> x.delta_cost)
      | Space_greedy -> minimize (fun (x : Ranking.candidate) -> -.x.delta_space)
      | Random _ -> List.nth l (Random.State.int st.rand (List.length l))
    in
    Hashtbl.replace st.untried c.id (List.filter (fun x -> x != chosen) l);
    Some chosen

(* §3.5 variant: greedily pile up to [k] further candidates of the same
   node onto [config], the result of its first step.  Conflicting
   transformations (ones whose structures are already gone) simply fail
   to apply and are skipped.  Returns [steps] extended with each step
   applied, with the configuration it was applied to, and the final
   configuration. *)
let extend_with_transforms st (c : node) steps config k =
  let estimate_rows = Costing.estimate_view_rows st.costing in
  let rec go applied config remaining k =
    match remaining with
    | (cand : Ranking.candidate) :: rest when k > 0 -> (
      match Transform.apply ~estimate_rows config cand.tr with
      | Some config' -> go ((config, cand) :: applied) config' rest (k - 1)
      | None -> go applied config rest k)
    | _ -> (List.rev applied, config)
  in
  let remaining = untried st c in
  let applied, config = go [] config remaining k in
  Hashtbl.replace st.untried c.id
    (List.filter
       (fun x -> not (List.exists (fun (_, y) -> x == y) applied))
       remaining);
  ( steps @ List.map (fun (cfg, (cand : Ranking.candidate)) -> (cfg, cand.tr)) applied,
    config )

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

(* One JSONL event per search iteration, rendered from the iteration's
   report: the chosen transformation, its predicted ΔT/ΔS and penalty,
   the realized cost/size after evaluation and the bound-drift ratio
   (§3.3.2 upper bound vs. actual re-optimized cost; a drift ≥ 1 means
   the bound held). *)
let emit_iteration st ~parent (r : iteration_report) =
  Obs.Probe.emit (fun () ->
      let open Obs.Json in
      let predicted_cost = r.it_parent_cost +. r.it_predicted_delta_cost in
      let predicted_size = r.it_parent_size -. r.it_predicted_delta_space in
      let realized =
        match r.it_result with
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
           ("iteration", Int r.it_iteration);
           ("parent", Int parent);
           ("transform", String (Fmt.str "%a" Transform.pp r.it_transform));
           ("kind", String (Transform.kind r.it_transform));
           ("penalty", Float r.it_penalty);
           ("delta_cost", Float r.it_predicted_delta_cost);
           ("delta_space", Float r.it_predicted_delta_space);
           ("predicted_cost", Float predicted_cost);
           ("predicted_size", Float predicted_size);
           ("outcome", String r.it_outcome);
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
  let costing =
    Costing.create catalog ~whatif ~pool ~base_config:opts.base_config
      ~space_budget:opts.space_budget ~shrink:opts.shrink_configurations
      ~whatif_budget:opts.whatif_budget prepared
  in
  let st =
    {
      costing;
      opts;
      nodes = [];
      by_id = Hashtbl.create 64;
      untried = Hashtbl.create 64;
      best = None;
      iterations = 0;
      candidates_trace = [];
      seen = Hashtbl.create 64;
      rand =
        Random.State.make
          [| (match opts.selection with Random seed -> seed | _ -> 0) |];
      started = Obs.Clock.now ();
    }
  in
  let cost_node ~parent ~steps config =
    Costing.cost_node costing ~best:st.best ~parent ~steps config
  in
  (* Admission: every evaluated node joins the pool, and one that fits
     the budget and beats the incumbent becomes the best. *)
  let best_trace = ref [] in
  let admit ~iteration (node : node) =
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
  let root = Option.get (cost_node ~parent:None ~steps:[] initial) in
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
    Option.iter (admit ~iteration:0) (cost_node ~parent:None ~steps:[] cfg));
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
         st.candidates_trace <- untried_ready_count st :: st.candidates_trace;
         match pick_candidate st c with
         | None -> () (* will be skipped next pick *)
         | Some cand ->
           st.iterations <- st.iterations + 1;
           Obs.Probe.iteration ();
           let applied =
             Transform.apply
               ~estimate_rows:(Costing.estimate_view_rows costing)
               c.config cand.tr
           in
           let status, produced =
             match applied with
             | None -> ("inapplicable", None)
             | Some config' -> (
               (* §3.5 variant: pile up to k−1 further non-conflicting
                  transformations before evaluating *)
               let steps, config' =
                 extend_with_transforms st c [ (c.config, cand.tr) ] config'
                   (opts.transforms_per_iteration - 1)
               in
               Obs.Probe.transform_applied ~kind:(Transform.kind cand.tr);
               let fp = Config.fingerprint config' in
               if Hashtbl.mem st.seen fp then ("duplicate", None)
               else begin
                 Hashtbl.replace st.seen fp ();
                 match
                   Obs.Probe.span "search.evaluate" (fun () ->
                       cost_node ~parent:(Some c) ~steps config')
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
           let report =
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
               it_result = produced;
             }
           in
           emit_iteration st ~parent:c.id report;
           Option.iter (fun check -> check report) opts.on_iteration)
     done
   with Exit -> ());
  (* Endgame re-ranking.  The loop compared configurations by
     bound-substituted costs, so among close contenders the best node may
     be mis-identified.  Re-cost the cheapest valid configurations
     honestly ({!Costing.recost_exact}: bound-substituted plans only,
     through the warm cache, whole nodes only), cheapest first, spending
     what is left of the budget, then re-pick the best.  The ledger is
     debited on the main domain, so the spend sequence (and hence the
     recommendation) is identical at any [jobs].  Under the unbounded
     ledger no plan is bound-substituted, so nothing changes. *)
  (let by_cost (a : node) (b : node) =
     match Float.compare a.cost b.cost with
     | 0 -> Int.compare a.id b.id
     | c -> c
   in
   let fitting () =
     List.sort by_cost
       (List.filter (fun (n : node) -> n.size <= opts.space_budget) st.nodes)
   in
   let recosted = List.filter_map (Costing.recost_exact costing) (fitting ()) in
   if recosted <> [] then begin
     List.iter (fun (n : node) -> Hashtbl.replace st.by_id n.id n) recosted;
     st.nodes <- List.map (fun (n : node) -> Hashtbl.find st.by_id n.id) st.nodes;
     (* the re-costed nodes fit, so the cheapest fitting one exists *)
     let n = List.hd (fitting ()) in
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
      List.rev_map (fun (n : node) -> (n.size, n.cost, n.actual_penalty)) st.nodes;
    best_trace = List.rev !best_trace;
    iterations = st.iterations;
    candidates_per_iteration = List.rev st.candidates_trace;
    optimizer_calls = calls;
    cache_hits = hits;
    whatif;
  }
