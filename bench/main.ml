(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§4) on the simulated substrate.

    Usage: [main.exe [table1|table2|table3|fig3|fig4|fig6|fig7|fig8|fig9|
    fig10|compress|validate|ablation|all]].  With no argument (or [all])
    every experiment runs.

    Absolute numbers differ from the paper's (different optimizer, cost
    model, and hardware); the claims being reproduced are the {e shapes}:
    who wins, by roughly what factor, and where the crossovers fall.  Each
    section header states the expectation. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module Catalog = Relax_catalog.Catalog
module O = Relax_optimizer
module T = Relax_tuner
module B = Relax_baseline
module W = Relax_workloads


let section title expectation =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=');
  Printf.printf "paper expectation: %s\n\n" expectation

let now () = Relax_obs.Clock.now ()

(* experiment-wide defaults, chosen so `all` completes in minutes *)
let tpch_scale = 0.02
let pool_size = 8
let ptt_iterations = 200

let tpch_cat = lazy (W.Tpch.catalog ~scale:tpch_scale ())
let ds1 = lazy (W.Star.schema ~scale:0.02 ())
let bench_db = lazy (W.Bench_db.schema ~scale:0.02 ())

(* --jobs N (parsed below); absent = RELAX_JOBS or the domain count *)
let jobs_flag = ref None

(* --profile[=FILE]: run every experiment under a profiling recorder and
   write a Chrome trace-event file per experiment (Perfetto-loadable) *)
let profile_flag = ref None

let effective_jobs () =
  match !jobs_flag with
  | Some j -> j
  | None -> Relax_parallel.Pool.default_jobs ()

(* --validate: attach the differential invariant checker to every tune;
   any violation anywhere makes the whole harness exit non-zero *)
let validate_flag = ref false
let check_iterations = ref 0
let check_violations = ref 0

(* Every relaxation tune of the harness runs through here, so --validate
   checks each one. *)
let tune cat w (opts : T.Tuner.options) =
  let checker =
    if !validate_flag then
      Some
        (Relax_check.Checker.create cat ~workload:w ~protected:Config.empty ())
    else None
  in
  let r =
    T.Tuner.tune cat w
      { opts with on_iteration = Option.map Relax_check.Checker.hook checker }
  in
  (match checker with
  | None -> ()
  | Some c ->
    let rep = Relax_check.Checker.report c in
    check_iterations := !check_iterations + rep.iterations_checked;
    check_violations := !check_violations + List.length rep.violations;
    if rep.violations <> [] then
      Printf.printf "  !! differential check: %s\n"
        (Fmt.str "%a" Relax_check.Checker.pp_report rep));
  r

let ptt ?(mode = T.Tuner.Indexes_and_views) ?(budget = infinity)
    ?(iters = ptt_iterations) cat w =
  let opts = T.Tuner.default_options ~mode ~space_budget:budget () in
  tune cat w { opts with max_iterations = iters; jobs = effective_jobs () }

let ctt ?(views = true) ?(budget = infinity) cat w =
  B.Ctt.tune cat w (B.Ctt.default_options ~with_views:views ~space_budget:budget ())

(* ------------------------------------------------------------------ *)
(* Table 1: index and view requests for the TPC-H workload             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: index and view requests, 22-query TPC-H workload"
    "the number of intercepted requests (= simulated structures) stays \
     small even for this complex workload";
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload () in
  let t0 = now () in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  Printf.printf "%-8s %14s %14s\n" "query" "#index reqs" "#view reqs";
  let ti, tv =
    List.fold_left
      (fun (ti, tv) (s : T.Instrument.request_stats) ->
        Printf.printf "%-8s %14d %14d\n" s.qid s.index_requests s.view_requests;
        (ti + s.index_requests, tv + s.view_requests))
      (0, 0) inst.stats
  in
  Printf.printf "%-8s %14d %14d\n" "total" ti tv;
  Printf.printf
    "\noptimal configuration: %d structures, %s (derived in %.2f s, %d \
     instrumentation passes)\n"
    (Config.cardinal inst.optimal)
    (Fmt.str "%a" Size_model.pp_bytes (Config.total_bytes cat inst.optimal))
    (now () -. t0) inst.passes

(* ------------------------------------------------------------------ *)
(* Table 2: databases and workloads                                    *)
(* ------------------------------------------------------------------ *)

let db_bytes cat = Config.total_bytes cat Config.empty

let table2 () =
  section "Table 2: databases and workloads used in the experiments"
    "a mix of benchmark, synthetic decision-support and synthetic OLTP \
     databases with generated and fixed workloads";
  Printf.printf "%-10s %8s %12s  %s\n" "database" "#tables" "size" "workloads";
  let row name cat desc =
    Printf.printf "%-10s %8d %12s  %s\n" name
      (List.length (Catalog.table_names cat))
      (Fmt.str "%a" Size_model.pp_bytes (db_bytes cat))
      desc
  in
  row "TPC-H" (Lazy.force tpch_cat)
    "22 fixed queries + generated select/update pools";
  row "DS1" (Lazy.force ds1).catalog "generated star-join pools";
  row "Bench" (Lazy.force bench_db).catalog
    "generated single-table/2-join OLTP pools";
  Printf.printf
    "\nper-pool settings: %d workloads x ~8 statements, modes = indexes | \
     indexes+views, select-only and 25%%-update variants\n"
    pool_size

(* ------------------------------------------------------------------ *)
(* workload pools shared by Table 3 / Fig 8 / Fig 9                    *)
(* ------------------------------------------------------------------ *)

type pooled = {
  label : string;
  cat : Catalog.t;
  workload : Query.workload;
}

let pool ~db_label (schema : W.Generator.schema) ~update_fraction ~seed0 n =
  List.init n (fun i ->
      let seed = seed0 + i in
      let profile =
        { W.Generator.default_profile with update_fraction; max_tables = 3 }
      in
      {
        label = Printf.sprintf "%s-w%02d" db_label (i + 1);
        cat = schema.catalog;
        workload = W.Generator.workload ~seed ~profile schema ~n:8;
      })

let tpch_fixed_pools () =
  (* slices of the 22-query workload act as fixed TPC-H workloads *)
  let cat = Lazy.force tpch_cat in
  [
    ("TPCH-q1..8", [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    ("TPCH-q9..16", [ 9; 10; 11; 12; 13; 14; 15; 16 ]);
    ("TPCH-q17..22", [ 17; 18; 19; 20; 21; 22 ]);
  ]
  |> List.map (fun (label, nums) ->
         { label; cat; workload = W.Tpch.workload_subset nums })

let select_pools () =
  tpch_fixed_pools ()
  @ pool ~db_label:"TPCH" (W.Bench_db.tpch_schema ~scale:tpch_scale ())
      ~update_fraction:0.0 ~seed0:100 (pool_size - 3)
  @ pool ~db_label:"DS1" (Lazy.force ds1) ~update_fraction:0.0 ~seed0:200
      pool_size
  @ pool ~db_label:"Bench" (Lazy.force bench_db) ~update_fraction:0.0
      ~seed0:300 pool_size

let update_pools () =
  (* the classic TPC-H maintenance mix: queries plus the dbgen refresh
     functions RF1/RF2 *)
  [
    {
      label = "TPCH-RF";
      cat = Lazy.force tpch_cat;
      workload =
        W.Tpch.workload_subset [ 1; 3; 6; 14 ]
        @ W.Tpch.refresh_workload ~scale:tpch_scale ();
    };
  ]
  @ pool ~db_label:"TPCH" (W.Bench_db.tpch_schema ~scale:tpch_scale ())
    ~update_fraction:0.25 ~seed0:400 (pool_size - 1)
  @ pool ~db_label:"DS1" (Lazy.force ds1) ~update_fraction:0.25 ~seed0:500
      pool_size
  @ pool ~db_label:"Bench" (Lazy.force bench_db) ~update_fraction:0.25
      ~seed0:600 pool_size

(* ------------------------------------------------------------------ *)
(* Table 3: tuning time for the most expensive workloads               *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: tuning time, CTT vs PTT (no constraints)"
    "PTT reaches the optimal configuration almost immediately (the \
     starting point is the goal); CTT spends its time in candidate \
     scoring, merging and greedy enumeration";
  let rows =
    List.map
      (fun p ->
        let t0 = now () in
        let c = ctt ~views:true p.cat p.workload in
        let ctt_time = now () -. t0 in
        let t0 = now () in
        let r = ptt ~mode:T.Tuner.Indexes_and_views ~iters:1 p.cat p.workload in
        let ptt_time = now () -. t0 in
        (p.label, ctt_time, ptt_time, c.improvement, r.improvement))
      (select_pools ())
  in
  let top =
    List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> Float.compare b a) rows
    |> List.filteri (fun i _ -> i < 10)
  in
  Printf.printf "%-14s %10s %10s %10s %10s\n" "workload" "time CTT" "time PTT"
    "impr CTT" "impr PTT";
  List.iter
    (fun (label, tc, tp, ic, ip) ->
      Printf.printf "%-14s %9.2fs %9.2fs %9.1f%% %9.1f%%\n" label tc tp ic ip)
    top

(* ------------------------------------------------------------------ *)
(* Figure 3: bounding the improvement of the final configuration       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    "Figure 3: best configuration found by the bottom-up tool over time"
    "the bottom-up tool improves in steps and plateaus long before it \
     terminates; knowing the optimal configuration's cost (the PTT bound) \
     would justify stopping much earlier";
  let cat = Lazy.force tpch_cat in
  (* a complex 30-statement workload: the 22 fixed queries + 8 generated *)
  let extra =
    W.Generator.workload ~seed:42
      ~profile:{ W.Generator.default_profile with max_tables = 4 }
      (W.Bench_db.tpch_schema ~scale:tpch_scale ())
      ~n:8
    |> List.map (fun (e : Query.entry) -> { e with qid = "x" ^ e.qid })
  in
  let w = W.Tpch.workload () @ extra in
  let c = ctt ~views:true cat w in
  let r = ptt ~mode:T.Tuner.Indexes_and_views ~iters:1 cat w in
  let bound_impr =
    T.Tuner.improvement ~initial:c.initial_cost ~recommended:r.optimal_cost
  in
  Printf.printf "%-18s %14s\n" "optimizer calls" "improvement";
  List.iter
    (fun (calls, cost) ->
      Printf.printf "%-18d %13.1f%%\n" calls
        (100.0 *. (1.0 -. (cost /. c.initial_cost))))
    c.trace;
  Printf.printf "\noptimal-configuration bound (PTT): %.1f%%\n" bound_impr;
  Printf.printf
    "-> once the trace is within a few points of the bound, tuning can stop\n";
  (* the relaxation tuner's anytime behaviour on the same workload, under a
     tight budget: it starts from a valid configuration almost immediately
     and refines, instead of climbing from zero *)
  let budget = db_bytes cat *. 2.5 in
  let rc =
    let opts =
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:budget ())
        with
        max_iterations = 400;
        (* §3.5: batching transformations reaches the first valid
           configuration quickly, making the anytime curve visible *)
        transforms_per_iteration = 4;
      }
    in
    tune cat w opts
  in
  Printf.printf
    "\nPTT under a %s budget reaches its final quality in %d iterations:\n"
    (Fmt.str "%a" Size_model.pp_bytes budget)
    (match List.rev rc.best_trace with (i, _) :: _ -> i | [] -> 0);
  List.iter
    (fun (i, cost) ->
      Printf.printf "  iteration %-6d best valid improvement %5.1f%%\n" i
        (100.0 *. (1.0 -. (cost /. c.initial_cost))))
    rc.best_trace

(* ------------------------------------------------------------------ *)
(* Figure 4: relaxation-based search on a TPC-H database               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: space/cost distribution of relaxed configurations"
    "cost decreases with space; a knee appears past which extra storage \
     buys little (the paper's 'more than 4GB improves only 3%')";
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 3; 5; 6; 10; 12; 14; 15; 18; 19 ] in
  let base_size = db_bytes cat in
  (* the paper's Figure 4 tunes TPC-H for indexes with a budget of ~1.4x
     the initial configuration; a tight budget forces the relaxation to walk
     the whole space/cost curve down, exposing the distribution as a
     by-product of the search *)
  let budget = base_size *. 1.4 in
  let r = ptt ~mode:T.Tuner.Indexes_only ~budget ~iters:500 cat w in
  Printf.printf "initial: %s, cost %.1f\n"
    (Fmt.str "%a" Size_model.pp_bytes r.initial_size)
    r.initial_cost;
  Printf.printf "optimal: %s, cost %.1f\n"
    (Fmt.str "%a" Size_model.pp_bytes r.optimal_size)
    r.optimal_cost;
  Printf.printf "budget : %s -> recommended cost %.1f (%.1f%% improvement)\n\n"
    (Fmt.str "%a" Size_model.pp_bytes budget)
    r.recommended_cost r.improvement;
  Printf.printf "%-14s %12s\n" "size" "best cost";
  let frontier = T.Report.pareto_frontier r.frontier in
  List.iter
    (fun (s, c) ->
      Printf.printf "%-14s %12.1f\n" (Fmt.str "%a" Size_model.pp_bytes s) c)
    frontier

(* ------------------------------------------------------------------ *)
(* Figure 6: candidate transformations per iteration                   *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: candidate transformations at each search iteration"
    "each iteration exposes hundreds of new applicable transformations: \
     exhaustive search is infeasible, ranking heuristics are essential";
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 3; 5; 6; 10; 12; 14; 15 ] in
  let r =
    ptt ~mode:T.Tuner.Indexes_and_views ~budget:(db_bytes cat *. 1.3)
      ~iters:60 cat w
  in
  Printf.printf "%-10s %26s\n" "iteration" "available transformations";
  List.iteri
    (fun i n -> if i mod 4 = 0 then Printf.printf "%-10d %26d\n" (i + 1) n)
    r.candidates_per_iteration

(* ------------------------------------------------------------------ *)
(* Figure 7: validating the execution-cost upper bounds                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7: cost upper bounds vs true re-optimized costs"
    "the §3.3.2 bound is a true upper bound and stays close to the \
     re-optimized cost (it patches plans locally instead of calling the \
     optimizer)";
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14; 15 ] in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let prepared = T.Search.prepare w in
  let whatif = O.Whatif.create cat in
  let plans =
    Array.map
      (fun (qid, _, sq) -> (qid, sq, O.Whatif.plan_select whatif inst.optimal ~qid sq))
      prepared.selects_arr
  in
  let est v = O.Cardinality.spjg (O.Env.make cat Config.empty) (Relax_physical.View.definition v) in
  let transforms = T.Transform.enumerate inst.optimal in
  let checked = ref 0 and violations = ref 0 and slack_sum = ref 0.0 in
  Printf.printf "%-34s %12s %12s %8s\n" "transformation (sample)" "bound"
    "true cost" "slack";
  List.iteri
    (fun k tr ->
      match T.Transform.apply ~estimate_rows:est inst.optimal tr with
      | None -> ()
      | Some config' ->
        let ctx =
          T.Cost_bound.make_context cat
            ~cbv:(fun v ->
              (O.Optimizer.optimize cat Config.empty
                 { Query.body = Relax_physical.View.definition v; order_by = [] })
                .cost)
            ~new_config:config' [ (inst.optimal, tr) ]
        in
        Array.iter
          (fun (_, sq, plan) ->
            if T.Cost_bound.plan_affected ctx plan then begin
              let bound = T.Cost_bound.query_bound ctx plan in
              let true_cost = (O.Optimizer.optimize cat config' sq).cost in
              incr checked;
              if bound < true_cost -. 1e-6 then incr violations;
              slack_sum := !slack_sum +. ((bound -. true_cost) /. true_cost);
              if !checked <= 12 then
                Printf.printf "%-34s %12.1f %12.1f %7.1f%%\n"
                  (let s = Fmt.str "%a" T.Transform.pp tr in
                   if String.length s > 34 then String.sub s 0 34 else s)
                  bound true_cost
                  (100.0 *. (bound -. true_cost) /. true_cost)
            end)
          plans;
        ignore k)
    transforms;
  Printf.printf
    "\nchecked %d (transformation, affected query) pairs: %d bound \
     violations, mean slack %.1f%%\n"
    !checked !violations
    (100.0 *. !slack_sum /. float_of_int (max 1 !checked))

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9: PTT vs CTT across workload pools                   *)
(* ------------------------------------------------------------------ *)

let delta_improvement_run ~title ~expectation ~pools ~ptt_iters () =
  section title expectation;
  List.iter
    (fun (mode_label, views) ->
      Printf.printf "--- %s ---\n" mode_label;
      Printf.printf "%-14s %10s %10s %12s\n" "workload" "impr CTT" "impr PTT"
        "delta";
      let deltas =
        List.map
          (fun p ->
            let c = ctt ~views p.cat p.workload in
            let mode =
              if views then T.Tuner.Indexes_and_views else T.Tuner.Indexes_only
            in
            let r = ptt ~mode ~iters:ptt_iters p.cat p.workload in
            let delta = r.improvement -. c.improvement in
            Printf.printf "%-14s %9.1f%% %9.1f%% %+11.1f%%\n" p.label
              c.improvement r.improvement delta;
            delta)
          pools
      in
      let n = List.length deltas in
      let wins = List.length (List.filter (fun d -> d > 1.0) deltas) in
      let ties =
        List.length (List.filter (fun d -> Float.abs d <= 1.0) deltas)
      in
      let losses = List.length (List.filter (fun d -> d < -1.0) deltas) in
      let worst = List.fold_left Float.min infinity deltas in
      Printf.printf
        "summary: %d/%d PTT better (>1%%), %d/%d within 1%%, %d/%d worse; \
         worst delta %+.1f%%\n\n"
        wins n ties n losses n worst)
    [ ("indexes only", false); ("indexes and views", true) ]

let fig8 () =
  delta_improvement_run
    ~title:
      "Figure 8: quality of recommendations, PTT vs CTT (no constraints)"
    ~expectation:
      "most workloads tie or favour PTT; a long tail of large PTT wins, \
       especially when views are recommended; PTT rarely loses and never \
       by much"
    ~pools:(select_pools ()) ~ptt_iters:1 ()

let fig9 () =
  delta_improvement_run
    ~title:"Figure 9: quality of recommendations for UPDATE workloads"
    ~expectation:
      "with update costs the optimal configuration is no longer free: PTT \
       searches under a time bound; a large share of workloads still tie \
       or favour PTT, and losses stay within a few percent"
    ~pools:(update_pools ()) ~ptt_iters:ptt_iterations ()

(* ------------------------------------------------------------------ *)
(* Figure 10: quality under varying storage constraints                *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "Figure 10: recommendation quality vs storage constraint"
    "PTT's quality grows monotonically with available space; CTT's curve \
     is below PTT's and can dip when slightly more space is available \
     (greedy artifacts)";
  (* indexes-only: index sizes create the real space/benefit trade-off the
     sweep is about (with views enabled, tiny aggregate views saturate the
     quality at every budget on this scaled-down database) *)
  let run label cat w =
    Printf.printf "--- %s ---\n" label;
    let r_opt = ptt ~mode:T.Tuner.Indexes_only ~iters:1 cat w in
    let min_size = db_bytes cat in
    let max_size = r_opt.optimal_size in
    Printf.printf "0%% = %s (tables only), 100%% = %s (optimal)\n"
      (Fmt.str "%a" Size_model.pp_bytes min_size)
      (Fmt.str "%a" Size_model.pp_bytes max_size);
    Printf.printf "%-10s %10s %10s\n" "space" "impr CTT" "impr PTT";
    List.iter
      (fun pct ->
        let budget = min_size +. ((max_size -. min_size) *. pct /. 100.0) in
        let c = ctt ~views:false ~budget cat w in
        let r = ptt ~mode:T.Tuner.Indexes_only ~budget ~iters:250 cat w in
        Printf.printf "%9.0f%% %9.1f%% %9.1f%%\n" pct c.improvement
          r.improvement)
      [ 5.0; 10.0; 20.0; 35.0; 50.0; 65.0; 80.0; 100.0 ]
  in
  run "TPC-H (8 fixed queries)" (Lazy.force tpch_cat)
    (W.Tpch.workload_subset [ 1; 3; 5; 6; 10; 12; 14; 15 ]);
  let ds1 = Lazy.force ds1 in
  run "DS1 (generated)" ds1.catalog
    (W.Generator.workload ~seed:77 ds1 ~n:8)

(* ------------------------------------------------------------------ *)
(* Workload compression                                                 *)
(* ------------------------------------------------------------------ *)

let compress_bench () =
  section "Workload compression: tuning time vs quality"
    "not a paper figure — the AutoAdmin-lineage scalability tool: large \
     workloads repeat a few templates with different constants, so \
     compressing to weighted representatives cuts tuning time at equal \
     recommendation quality";
  let schema = W.Bench_db.tpch_schema ~scale:tpch_scale () in
  (* 120 statements from 12 templates: each template re-parameterized 10x
     with fresh constants, as production workloads repeat *)
  let base = W.Generator.workload ~seed:800 schema ~n:12 in
  let rng = Relax_catalog.Rng.create 801 in
  let big =
    List.concat_map
      (fun rep ->
        List.map
          (fun (e : Query.entry) -> { e with qid = Printf.sprintf "%s-r%d" e.qid rep })
          (if rep = 0 then base else W.Generator.reparameterize schema rng base))
      (List.init 10 Fun.id)
  in
  let before, after = W.Compress.compression_ratio big in
  Printf.printf "workload: %d statements, %d distinct templates\n" before after;
  let run label w =
    let t0 = now () in
    let r = ptt ~mode:T.Tuner.Indexes_only ~iters:150 schema.catalog w in
    Printf.printf "%-12s %4d stmts  impr %5.1f%%  optimal cost %10.1f  %6.2fs\n"
      label (List.length w) r.improvement r.optimal_cost (now () -. t0)
  in
  run "full" big;
  run "compressed" (W.Compress.compress big)

(* ------------------------------------------------------------------ *)
(* Cost-model validation against real execution                        *)
(* ------------------------------------------------------------------ *)

let validate () =
  section "Validation: estimated costs vs measured execution"
    "not a paper figure — executes the chosen plans against generated rows \
     (the paper ran on SQL Server, so its cost model was trusted); the \
     model must rank configurations the way real execution does, and \
     cardinality q-error should stay small";
  let cat = W.Tpch.catalog ~scale:0.005 () in
  let db = Relax_engine.Data.create ~seed:11 cat in
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14; 15 ] in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  Printf.printf "-- base configuration (no structures)\n";
  let base = Relax_engine.Validate.run db Config.empty w in
  Fmt.pr "%a@." Relax_engine.Validate.pp_report base;
  Printf.printf "\n-- optimal configuration (%d structures)\n"
    (Config.cardinal inst.optimal);
  let opt = Relax_engine.Validate.run db inst.optimal w in
  Fmt.pr "%a@." Relax_engine.Validate.pp_report opt;
  Printf.printf
    "\nestimated improvement %.1f%%, measured improvement %.1f%%; winner \
     preserved: %b\n"
    (100.0 *. (1.0 -. (opt.estimated_total /. base.estimated_total)))
    (100.0 *. (1.0 -. (opt.measured_total /. base.measured_total)))
    (Relax_engine.Validate.same_winner db Config.empty inst.optimal w)

(* ------------------------------------------------------------------ *)
(* Ablation: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: search heuristics and §3.5 variants"
    "the penalty heuristic should beat cost-greedy, space-greedy and \
     random transformation choice under a tight budget; shrinking and \
     multi-transformation speed convergence but may cost quality \
     (exactly the trade-offs §3.5 predicts)";
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 3; 5; 6; 10; 12; 14; 15 ] in
  let budget = db_bytes cat *. 1.6 in
  let run label opts_patch =
    let base =
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
           ~space_budget:budget ())
        with
        max_iterations = 250;
      }
    in
    let t0 = now () in
    let r = tune cat w (opts_patch base) in
    Printf.printf "%-28s %9.1f%% %10.1f %9d %8.2fs\n" label r.improvement
      r.recommended_cost
      (Config.cardinal r.recommended)
      (now () -. t0)
  in
  Printf.printf "%-28s %10s %10s %9s %9s\n" "variant" "impr" "cost" "#structs"
    "time";
  run "penalty (paper, default)" (fun o -> o);
  run "cost-greedy selection" (fun o -> { o with selection = T.Search.Cost_greedy });
  run "space-greedy selection" (fun o -> { o with selection = T.Search.Space_greedy });
  run "random selection (seed 1)" (fun o -> { o with selection = T.Search.Random 1 });
  run "random selection (seed 2)" (fun o -> { o with selection = T.Search.Random 2 });
  run "3 transforms / iteration" (fun o -> { o with transforms_per_iteration = 3 });
  run "shrink configurations" (fun o -> { o with shrink_configurations = true });
  run "shrink + 3 transforms" (fun o ->
      { o with shrink_configurations = true; transforms_per_iteration = 3 })

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("compress", compress_bench);
    ("validate", validate);
    ("ablation", ablation);
  ]

(* Run one experiment under its own recorder so its metrics snapshot can be
   reported separately; every tuner call inside inherits the ambient
   recorder.  With --profile the recorder retains the span tree and
   counter samples, written per experiment as a Chrome trace. *)
let profile_path base name ~single =
  if single then base
  else
    Filename.remove_extension base ^ "." ^ name ^ Filename.extension base

let run_instrumented ~single name f =
  let profiling = !profile_flag <> None in
  let recorder = Relax_obs.Recorder.create ~profile:profiling () in
  let t0 = now () in
  Relax_obs.Recorder.with_ambient recorder f;
  let elapsed = now () -. t0 in
  (match !profile_flag with
  | None -> ()
  | Some base -> (
    let path = profile_path base name ~single in
    try
      Relax_obs.Chrome.write recorder path;
      Printf.printf "profile trace written to %s (open in ui.perfetto.dev)\n"
        path
    with Sys_error msg -> Printf.eprintf "cannot write %s: %s\n" path msg));
  (name, elapsed, Relax_obs.Recorder.snapshot recorder)

let results_json ~total_elapsed results =
  let open Relax_obs.Json in
  let aggregate =
    Relax_obs.Metrics.merge_all (List.map (fun (_, _, m) -> m) results)
  in
  Obj
    [
      ("total_elapsed_s", Float total_elapsed);
      ( "experiments",
        List
          (List.map
             (fun (name, elapsed, m) ->
               Obj
                 [
                   ("name", String name);
                   ("elapsed_s", Float elapsed);
                   ("metrics", Relax_obs.Metrics.to_json m);
                 ])
             results) );
      ("metrics", Relax_obs.Metrics.to_json aggregate);
    ]

let parse_log_level = function
  | "quiet" -> Ok None
  | "app" -> Ok (Some Logs.App)
  | "error" -> Ok (Some Logs.Error)
  | "warning" -> Ok (Some Logs.Warning)
  | "info" -> Ok (Some Logs.Info)
  | "debug" -> Ok (Some Logs.Debug)
  | s -> Error s

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  (* SIGINT/SIGTERM unwind through every [Fun.protect] below, so partial
     bench output and trace sinks are flushed instead of dropped *)
  Relax_obs.Shutdown.install ();
  Relax_obs.Shutdown.protect @@ fun () ->
  (* peel off --json PATH / --json=PATH, --jobs N / --jobs=N and
     --log-level LEVEL *)
  let json_path = ref None in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> jobs_flag := Some n
    | Some _ | None ->
      Printf.eprintf "--jobs expects a positive integer, got %s\n" s;
      exit 1
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse acc rest
    | "--jobs" :: n :: rest ->
      set_jobs n;
      parse acc rest
    | "--validate" :: rest ->
      validate_flag := true;
      parse acc rest
    | "--profile" :: rest ->
      profile_flag := Some "bench-profile.json";
      parse acc rest
    | arg :: rest
      when String.length arg > 10 && String.sub arg 0 10 = "--profile=" ->
      profile_flag := Some (String.sub arg 10 (String.length arg - 10));
      parse acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs="
      ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      parse acc rest
    | "--log-level" :: level :: rest -> (
      match parse_log_level level with
      | Ok l ->
        Logs.set_level l;
        parse acc rest
      | Error s ->
        Printf.eprintf "unknown log level %s\n" s;
        exit 1)
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--json="
      ->
      json_path := Some (String.sub arg 7 (String.length arg - 7));
      parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let args = parse [] args in
  (* fail fast on an unwritable --json path, not after the experiments *)
  (match !json_path with
  | None -> ()
  | Some path -> (
    try Out_channel.with_open_bin path (fun _ -> ())
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1));
  let t0 = now () in
  let to_run =
    match args with
    | [] | [ "all" ] -> experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" n
              (String.concat " " (List.map fst experiments));
            exit 1)
        names
  in
  let single = List.length to_run = 1 in
  let results = List.map (fun (n, f) -> run_instrumented ~single n f) to_run in
  let total = now () -. t0 in
  (match !json_path with
  | None -> ()
  | Some path -> (
    try
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Relax_obs.Json.to_string
               (results_json ~total_elapsed:total results));
          Out_channel.output_char oc '\n');
      Printf.printf "results written to %s\n" path
    with Sys_error msg -> Printf.eprintf "cannot write %s: %s\n" path msg));
  Printf.printf "\nall experiments completed in %.1f s\n" total;
  if !validate_flag then begin
    Printf.printf
      "differential check: %d iterations checked across all runs, %d \
       violation(s)\n"
      !check_iterations !check_violations;
    if !check_violations > 0 then exit 1
  end
