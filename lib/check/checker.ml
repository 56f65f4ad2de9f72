(** The differential invariant checker (see the interface). *)

module Query = Relax_sql.Query
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module View = Relax_physical.View
module O = Relax_optimizer
module T = Relax_tuner
module Obs = Relax_obs
module Data = Relax_engine.Data

type tolerances = {
  bound_epsilon : float;
  size_tolerance : float;
  penalty_epsilon : float;
  size_sample : int;
}

let default_tolerances =
  {
    bound_epsilon = 1e-6;
    size_tolerance = 0.02;
    penalty_epsilon = 1e-6;
    size_sample = 4096;
  }

type violation = {
  rule : string;
  iteration : int;
  subject : string;
  detail : string;
  expected : float;
  actual : float;
}

let violation_json v =
  let module J = Obs.Json in
  J.Obj
    [
      ("event", J.String "check.violation");
      ("rule", J.String v.rule);
      ("iteration", J.Int v.iteration);
      ("subject", J.String v.subject);
      ("detail", J.String v.detail);
      ("expected", J.Float v.expected);
      ("actual", J.Float v.actual);
    ]

let pp_violation ppf v =
  Fmt.pf ppf "[iteration %d] %s: %s — %s" v.iteration v.rule v.subject
    v.detail;
  if Float.is_finite v.expected || Float.is_finite v.actual then
    Fmt.pf ppf " (expected %g, got %g)" v.expected v.actual

type report = {
  iterations_checked : int;
  bounds_checked : int;
  sizes_checked : int;
  violations : violation list;
  bound_drift : Drift.t;
  cost_drift : Drift.t;
  size_drift : Drift.t;
}

type t = {
  cat : Catalog.t;
  tol : tolerances;
  protected : Config.t;
  selects : (string * float * Query.select_query) array;
  whatif : O.Whatif.t;  (** checker-private plan cache *)
  quiet : Obs.Recorder.t;
      (** oracle probes land here instead of the run's recorder *)
  db : Data.t Lazy.t;
  cbv_memo : (string, float) Hashtbl.t;
  sized : (string, unit) Hashtbl.t;  (** structures already cross-sized *)
  rows_memo : (string, float option) Hashtbl.t;
  mutable iterations_checked : int;
  mutable bounds_checked : int;
  mutable sizes_checked : int;
  mutable violations_rev : violation list;
  bound_drift : Drift.t;
  cost_drift : Drift.t;
  size_drift : Drift.t;
}

let create ?(tolerances = default_tolerances) cat ~workload ~protected () =
  let prepared = T.Search.prepare workload in
  {
    cat;
    tol = tolerances;
    protected;
    selects = prepared.selects_arr;
    whatif = O.Whatif.create cat;
    quiet = Obs.Recorder.create ();
    db = lazy (Data.create cat);
    cbv_memo = Hashtbl.create 16;
    sized = Hashtbl.create 64;
    rows_memo = Hashtbl.create 16;
    iterations_checked = 0;
    bounds_checked = 0;
    sizes_checked = 0;
    violations_rev = [];
    bound_drift = Drift.create ();
    cost_drift = Drift.create ();
    size_drift = Drift.create ();
  }

(* --- independent oracles ------------------------------------------------ *)

(* view cardinality the same way the search estimates it: the optimizer's
   §3.3.1 cardinality module over the protected environment *)
let estimate_rows t (v : View.t) =
  O.Cardinality.spjg (O.Env.make t.cat t.protected) (View.definition v)

(* CBV memo: cost of computing a view from scratch under the protected
   configuration *)
let cbv t (v : View.t) =
  let name = View.name v in
  match Hashtbl.find_opt t.cbv_memo name with
  | Some c -> c
  | None ->
    let sq = { Query.body = View.definition v; order_by = [] } in
    let cost = (O.Optimizer.optimize t.cat t.protected sq).cost in
    Hashtbl.replace t.cbv_memo name cost;
    cost

let relation_rows_measured t config owner =
  match Hashtbl.find_opt t.rows_memo owner with
  | Some r -> r
  | None ->
    let r =
      Size_check.measured_rows (Lazy.force t.db) config
        ~sample:t.tol.size_sample owner
    in
    Hashtbl.replace t.rows_memo owner r;
    r

(* --- the per-iteration hook --------------------------------------------- *)

(* All float comparisons against oracle values go through the
   Cost_bound epsilon helpers (lint L3): a bound holds when the actual
   cost is below it up to relative [bound_epsilon] noise. *)
let bound_ok (tol : tolerances) ~bound ~actual =
  T.Cost_bound.float_leq ~eps:tol.bound_epsilon actual bound

let hook t (r : T.Search.iteration_report) =
  t.iterations_checked <- t.iterations_checked + 1;
  let fresh = ref [] in
  let add rule ~subject ~detail ~expected ~actual =
    fresh :=
      { rule; iteration = r.it_iteration; subject; detail; expected; actual }
      :: !fresh
  in
  let tr_label = T.Transform.id r.it_transform in
  (* Every oracle below may optimize, cost access paths or register
     derived-table statistics; running them under the private recorder
     keeps the checked run's metrics and trace byte-identical to an
     unchecked run. *)
  Obs.Recorder.with_ambient t.quiet (fun () ->
      (* 1. differential apply: re-derive the child configuration *)
      let reapplied =
        T.Transform.apply ~estimate_rows:(estimate_rows t) r.it_parent
          r.it_transform
      in
      (match (reapplied, r.it_applied) with
      | None, None -> ()
      | Some mine, Some theirs
        when Config.fingerprint mine = Config.fingerprint theirs ->
        ()
      | mine, theirs ->
        let show = function
          | None -> "inapplicable"
          | Some c -> Config.fingerprint c
        in
        add "apply_mismatch" ~subject:tr_label
          ~detail:
            (Fmt.str
               "independent re-application produced %s, the search produced \
                %s"
               (show mine) (show theirs))
          ~expected:Float.nan ~actual:Float.nan);
      (* 2. structural invariants on every configuration the iteration
         produced *)
      let check_invariants config =
        List.iter
          (fun (iv : Invariants.violation) ->
            add iv.rule ~subject:iv.subject ~detail:iv.detail
              ~expected:Float.nan ~actual:Float.nan)
          (Invariants.check t.cat config)
      in
      Option.iter check_invariants r.it_applied;
      (match (r.it_applied, r.it_result) with
      | Some applied, Some n
        when Config.fingerprint applied <> Config.fingerprint n.config ->
        (* batched transformations or shrinking produced a different
           configuration: check it too *)
        check_invariants n.config
      | _ -> ());
      (* 3. plan validity: every access of the evaluated node's plans
         reads only structures its configuration holds.  Exact, with no
         optimizer: a plan reading a missing structure is no plan of the
         configuration, and its cost is no cost of it either. *)
      Option.iter
        (fun (n : T.Search.node) ->
          Array.iteri
            (fun slot (qid, _, _) ->
              let missing = ref [] in
              O.Plan.iter_accesses
                (fun (a : O.Plan.access_info) ->
                  List.iter
                    (fun (u : O.Plan.index_usage) ->
                      if not (Config.mem_index n.config u.index) then
                        missing := Index.name u.index :: !missing)
                    a.usages;
                  if
                    (not (Catalog.mem_table t.cat a.rel))
                    && Option.is_none (Config.find_view n.config a.rel)
                  then missing := a.rel :: !missing)
                n.plans.(slot);
              List.iter
                (fun name ->
                  add "plan_validity" ~subject:(qid ^ " / " ^ name)
                    ~detail:
                      "the evaluated node's plan reads a structure its \
                       configuration does not hold"
                    ~expected:Float.nan ~actual:Float.nan)
                (List.sort_uniq String.compare !missing))
            t.selects)
        r.it_result;
      (* 4. bound soundness: the §3.3.2 bound vs what-if re-optimization *)
      (match reapplied with
      | None -> ()
      | Some config' ->
        let ctx =
          (* rebuilt from scratch over the checker's own CBV memo, not
             shared with the search's *)
          T.Cost_bound.make_context t.cat ~cbv:(cbv t) ~new_config:config'
            [ (r.it_parent, r.it_transform) ]
        in
        Array.iter
          (fun (qid, _w, sq) ->
            let plan = O.Whatif.plan_select t.whatif r.it_parent ~qid sq in
            if T.Cost_bound.plan_affected ctx plan then begin
              t.bounds_checked <- t.bounds_checked + 1;
              let bound =
                T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
              in
              let actual =
                (O.Whatif.plan_select t.whatif config' ~qid sq).O.Plan.cost
              in
              Drift.add t.bound_drift
                (if bound > 0.0 then actual /. bound else Float.nan);
              (* the frugal tier's lower bound must bracket the same
                 re-optimized cost from below *)
              let lower = T.Cost_bound.query_lower_bound ctx plan in
              if not (bound_ok t.tol ~bound:actual ~actual:lower) then
                add "lower_bound_soundness" ~subject:(tr_label ^ " / " ^ qid)
                  ~detail:
                    "the frugal lower bound is above the re-optimized cost"
                  ~expected:actual ~actual:lower;
              if not (bound_ok t.tol ~bound ~actual) then begin
                add "bound_soundness" ~subject:(tr_label ^ " / " ^ qid)
                  ~detail:
                    "the §3.3.2 upper bound is below the re-optimized cost"
                  ~expected:actual ~actual:bound;
                (* RELAX_CHECK_DEBUG=1 dumps enough context to rebuild the
                   violating case in a standalone repro *)
                if Sys.getenv_opt "RELAX_CHECK_DEBUG" <> None then begin
                  Fmt.epr "@.== check debug: %s / %s ==@." tr_label qid;
                  Fmt.epr "parent structures:@.";
                  List.iter
                    (fun i -> Fmt.epr "  %a@." Index.pp i)
                    (Config.indexes r.it_parent);
                  List.iter
                    (fun v -> Fmt.epr "  view %s@." (View.name v))
                    (Config.views r.it_parent);
                  Fmt.epr "old plan (cost %.3f):@.%a@." plan.O.Plan.cost
                    O.Plan.pp plan;
                  let new_plan = O.Whatif.plan_select t.whatif config' ~qid sq in
                  Fmt.epr "new plan (cost %.3f):@.%a@." new_plan.O.Plan.cost
                    O.Plan.pp new_plan
                end
              end
            end)
          t.selects);
      (* 5. penalty consistency on evaluated nodes (only when the result is
         exactly the applied configuration: the §3.5 extension and
         shrinking legitimately change ΔT/ΔS) *)
      (match (reapplied, r.it_result) with
      | Some mine, Some n
        when Config.fingerprint mine = Config.fingerprint n.config ->
        let realized_dt = n.cost -. r.it_parent_cost in
        let realized_ds = r.it_parent_size -. n.size in
        (* a zero prediction (no plan affected) has no meaningful ratio;
           the consistency check below still covers it *)
        if Float.abs r.it_predicted_delta_cost > 0.0 then
          Drift.add t.cost_drift (realized_dt /. r.it_predicted_delta_cost);
        if
          not
            (T.Cost_bound.float_leq ~eps:t.tol.penalty_epsilon realized_dt
               r.it_predicted_delta_cost)
        then
          add "delta_cost" ~subject:tr_label
            ~detail:"realized ΔT exceeds the predicted upper bound"
            ~expected:r.it_predicted_delta_cost ~actual:realized_dt;
        if
          not
            (T.Cost_bound.float_eq ~eps:t.tol.penalty_epsilon realized_ds
               r.it_predicted_delta_space)
        then
          add "delta_space" ~subject:tr_label
            ~detail:"realized ΔS diverges from the predicted space saving"
            ~expected:r.it_predicted_delta_space ~actual:realized_ds
      | _ -> ());
      (* 6. size fidelity: cross-size every structure once *)
      match r.it_applied with
      | None -> ()
      | Some config ->
        List.iter
          (fun i ->
            let owner = Index.owner i in
            let key =
              Fmt.str "%s#%g" (Index.name i)
                (Config.relation_rows t.cat config owner)
            in
            if not (Hashtbl.mem t.sized key) then begin
              Hashtbl.replace t.sized key ();
              t.sizes_checked <- t.sizes_checked + 1;
              let measured = relation_rows_measured t config owner in
              let res = Size_check.check_index t.cat config i in
              let sim_at_measured =
                match measured with
                | Some rows when not (Catalog.mem_table t.cat owner) ->
                  (* a view's true cardinality: record how far the stored
                     estimate drifts, without flagging estimation error as
                     a size-model bug *)
                  (Size_check.check_index ~rows t.cat config i).simulated
                | _ -> res.simulated
              in
              Drift.add t.size_drift
                (if res.predicted > 0.0 then sim_at_measured /. res.predicted
                 else Float.nan);
              if res.rel_err > t.tol.size_tolerance then
                add "size_model" ~subject:res.structure
                  ~detail:
                    "closed-form size disagrees with the packing simulation"
                  ~expected:res.simulated ~actual:res.predicted
            end)
          (Config.indexes config));
  (* surface what the oracles found through the run's own recorder *)
  let found = List.rev !fresh in
  List.iter
    (fun v ->
      t.violations_rev <- v :: t.violations_rev;
      Obs.Probe.count "check.violation";
      Obs.Probe.count ("check.violation." ^ v.rule);
      Obs.Probe.emit (fun () -> violation_json v))
    found

(* --- reporting ---------------------------------------------------------- *)

let report t =
  {
    iterations_checked = t.iterations_checked;
    bounds_checked = t.bounds_checked;
    sizes_checked = t.sizes_checked;
    violations = List.rev t.violations_rev;
    bound_drift = t.bound_drift;
    cost_drift = t.cost_drift;
    size_drift = t.size_drift;
  }

let ok (r : report) = r.violations = []

let report_json (r : report) =
  let module J = Obs.Json in
  J.Obj
    [
      ("event", J.String "check.report");
      ("iterations_checked", J.Int r.iterations_checked);
      ("bounds_checked", J.Int r.bounds_checked);
      ("sizes_checked", J.Int r.sizes_checked);
      ("violations", J.Int (List.length r.violations));
      ("bound_drift", Drift.to_json r.bound_drift);
      ("cost_drift", Drift.to_json r.cost_drift);
      ("size_drift", Drift.to_json r.size_drift);
    ]

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "checked %d iterations: %d bound comparisons, %d structures sized, %d \
     violations@."
    r.iterations_checked r.bounds_checked r.sizes_checked
    (List.length r.violations);
  Fmt.pf ppf "  bound drift (actual/bound): %a@." Drift.pp r.bound_drift;
  Fmt.pf ppf "  cost drift  (realized/predicted ΔT): %a@." Drift.pp
    r.cost_drift;
  Fmt.pf ppf "  size drift  (simulated/closed-form): %a@." Drift.pp
    r.size_drift;
  List.iter (fun v -> Fmt.pf ppf "  %a@." pp_violation v) r.violations
