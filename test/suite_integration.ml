(** End-to-end integration tests: the whole pipeline (instrument -> relax
    -> recommend) on realistic workloads, cross-tool invariants,
    randomized checks of the central correctness properties, and a
    spawned [tune] refusing unusable input files and [--queries]. *)

module Query = Relax_sql.Query
module Index = Relax_physical.Index
module Config = Relax_physical.Config
module Ddl = Relax_physical.Ddl
module O = Relax_optimizer
module T = Relax_tuner
module B = Relax_baseline
module W = Relax_workloads

let mb x = x *. 1024.0 *. 1024.0

let tpch_cat = lazy (W.Tpch.catalog ~scale:0.01 ())

let tpch_tune ?(mode = T.Tuner.Indexes_and_views) ?(budget = infinity)
    ?(iters = 120) nums =
  let cat = Lazy.force tpch_cat in
  let opts = T.Tuner.default_options ~mode ~space_budget:budget () in
  T.Tuner.tune cat (W.Tpch.workload_subset nums) { opts with max_iterations = iters }

(* --- full-pipeline sanity on TPC-H ---------------------------------------- *)

let test_pipeline_tpch_views () =
  let r = tpch_tune ~budget:(mb 20.0) [ 1; 3; 6; 10; 14 ] in
  Alcotest.(check bool) "fits budget" true (r.recommended_size <= mb 20.0);
  Alcotest.(check bool) "improvement in (0, 100]" true
    (r.improvement > 0.0 && r.improvement <= 100.0);
  Alcotest.(check bool) "lower bound respected" true
    (r.recommended_cost >= r.lower_bound -. 1e-6);
  Alcotest.(check bool) "optimal is cheapest explored" true
    (List.for_all (fun (_, c) -> c >= r.optimal_cost -. 1e-6) r.frontier);
  Alcotest.(check bool) "frontier non-trivial" true (List.length r.frontier > 3);
  List.iter
    (fun (s, c) ->
      Alcotest.(check bool) "finite frontier points" true
        (Float.is_finite s && Float.is_finite c))
    r.frontier

let test_pipeline_deterministic () =
  let a = tpch_tune ~budget:(mb 18.0) [ 3; 6; 14 ] in
  let b = tpch_tune ~budget:(mb 18.0) [ 3; 6; 14 ] in
  Fixtures.check_float "same cost" a.recommended_cost b.recommended_cost;
  Alcotest.(check string) "same configuration"
    (Config.fingerprint a.recommended)
    (Config.fingerprint b.recommended)

let test_optimal_dominates_ctt () =
  (* the §2 optimal configuration can never lose to anything the bottom-up
     baseline builds, since the optimizer sees strictly better structures *)
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10 ] in
  let ptt = tpch_tune [ 1; 3; 6; 10 ] in
  let ctt =
    B.Ctt.tune cat w (B.Ctt.default_options ~with_views:true ~space_budget:infinity ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.1f <= ctt %.1f" ptt.optimal_cost
       ctt.recommended_cost)
    true
    (ptt.optimal_cost <= ctt.recommended_cost +. 1e-6)

let test_whatif_total_is_sum_of_entries () =
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 1; 6; 14 ] in
  let whatif = O.Whatif.create cat in
  let total = O.Whatif.workload_cost whatif Config.empty w in
  let parts = O.Whatif.per_entry_costs whatif Config.empty w in
  Fixtures.check_float ~eps:1e-6 "sum matches" total
    (List.fold_left (fun acc (_, c) -> acc +. c) 0.0 parts)

let test_instrument_fixpoint_stable () =
  (* re-instrumenting on top of the optimal configuration adds nothing *)
  let cat = Lazy.force tpch_cat in
  let w = W.Tpch.workload_subset [ 3; 6 ] in
  let first = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let second = T.Instrument.optimal_configuration cat ~base:first.optimal w in
  Alcotest.(check int) "no growth"
    (Config.cardinal first.optimal)
    (Config.cardinal second.optimal)

let test_request_counts_scale_with_tables () =
  (* Table 1 shape: multi-join queries issue more requests *)
  let cat = Lazy.force tpch_cat in
  let one q = T.Instrument.optimal_configuration cat ~base:Config.empty (W.Tpch.workload_subset [ q ]) in
  let q6 = List.hd (one 6).stats in
  let q5 = List.hd (one 5).stats in
  Alcotest.(check bool) "Q5 needs more requests than Q6" true
    (q5.index_requests > q6.index_requests
    && q5.view_requests > q6.view_requests)

(* --- DDL ----------------------------------------------------------------- *)

let test_ddl_mentions_every_structure () =
  let r = tpch_tune ~budget:(mb 20.0) [ 3; 6 ] in
  let script = Ddl.to_string r.recommended in
  List.iter
    (fun v ->
      let name = Relax_physical.View.name v in
      Alcotest.(check bool) ("view " ^ name) true
        (Astring_contains.contains script name))
    (Config.views r.recommended);
  Alcotest.(check int) "one CREATE per structure"
    (Config.cardinal r.recommended)
    (Astring_contains.count script "CREATE ")

(* --- randomized correctness checks ----------------------------------------- *)

let small_cat = lazy (Fixtures.small_catalog ())

let arb_small_config =
  let gen =
    QCheck.Gen.(
      let cols = [ "a"; "b"; "cc"; "d"; "e"; "sid" ] in
      let* n = int_range 1 4 in
      let idx _ =
        let* k = int_range 1 3 in
        let* perm = shuffle_l cols in
        let keys = List.filteri (fun i _ -> i < k) perm in
        let* ns = int_range 0 2 in
        let suffix =
          List.filteri (fun i _ -> i < ns) (List.filteri (fun i _ -> i >= k) perm)
        in
        return (Index.on "r" keys ~suffix)
      in
      let* idxs = flatten_l (List.init n idx) in
      return (Config.of_indexes idxs))
  in
  QCheck.make ~print:Config.fingerprint gen

let queries_for_bounds =
  [
    "SELECT r.a, r.b FROM r WHERE r.a = 5";
    "SELECT r.b, r.e FROM r WHERE r.b = 7 AND r.d < 10";
    "SELECT r.a, r.cc FROM r WHERE r.a < 50 ORDER BY r.cc";
    "SELECT r.d, SUM(r.a) FROM r GROUP BY r.d";
  ]

(* the central §3.3.2 invariant, randomized: for any configuration and any
   applicable transformation, bound >= re-optimized true cost *)
let prop_cost_bound_dominates =
  QCheck.Test.make ~name:"cost bound dominates true cost (randomized)"
    ~count:60
    (QCheck.pair arb_small_config (QCheck.make (QCheck.Gen.oneofl queries_for_bounds)))
    (fun (config, qs) ->
      let cat = Lazy.force small_cat in
      let q = Fixtures.parse_select qs in
      let plan = O.Optimizer.optimize cat config q in
      let est _ = 1000.0 in
      let transforms = T.Transform.enumerate config in
      List.for_all
        (fun tr ->
          match T.Transform.apply ~estimate_rows:est config tr with
          | None -> true
          | Some config' ->
            let ctx : T.Cost_bound.context =
              {
                env' = O.Env.make cat config';
                old_env = O.Env.make cat config;
                removed_indexes = T.Transform.removed_indexes config tr;
                removed_views = T.Transform.removed_views tr;
                view_merge = None;
                cbv =
                  (fun v ->
                    (O.Optimizer.optimize cat Config.empty
                       {
                         Query.body = Relax_physical.View.definition v;
                         order_by = [];
                       })
                      .cost);
                expands = T.Transform.adds_structures tr;
              }
            in
            if not (T.Cost_bound.plan_affected ctx plan) then true
            else begin
              let bound = T.Cost_bound.query_bound ctx plan in
              let true_cost = (O.Optimizer.optimize cat config' q).cost in
              bound >= true_cost -. 1e-6
            end)
        transforms)

(* relaxing can only lose ground: every child configuration in a chain has
   cost >= the optimal configuration's *)
let prop_relaxation_never_beats_optimal =
  QCheck.Test.make ~name:"no relaxed configuration beats the optimal"
    ~count:6
    (QCheck.make (QCheck.Gen.int_range 10 25))
    (fun budget_mb ->
      let r = tpch_tune ~budget:(mb (float_of_int budget_mb)) ~iters:60 [ 3; 6; 14 ] in
      List.for_all (fun (_, c) -> c >= r.optimal_cost -. 1e-6) r.frontier)

(* --- the tune front end ---------------------------------------------------- *)

(* cwd is _build/default/test under `dune runtest`, the workspace root
   under `dune exec test/test_main.exe` *)
let tune_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/tune.exe"; "_build/default/bin/tune.exe" ]

(* tune's exit status and stderr on [args], stdin and stdout on /dev/null *)
let tune_status exe args =
  let err = Filename.temp_file "tune" ".err" in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null_in null_out
      err_fd
  in
  List.iter Unix.close [ null_in; null_out; err_fd ];
  let status = snd (Unix.waitpid [] pid) in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, stderr)

(* an input file that cannot be used is exit 2 with one line naming the
   file and the reason, never an uncaught exception (exit 125) or a
   recommendation for a column that does not exist *)
let test_tune_refuses_input () =
  match tune_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    List.iter
      (fun (flag, contents, reason) ->
        let path = Filename.temp_file "tune_input" ".sql" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        let status, stderr = tune_status exe [ flag; path ] in
        Sys.remove path;
        (match status with
        | Unix.WEXITED 2 -> ()
        | Unix.WEXITED n -> Alcotest.failf "tune %s %S exited %d" flag contents n
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          Alcotest.failf "tune %s stopped by signal %d" flag n);
        Alcotest.(check bool)
          (Printf.sprintf "stderr names %s and %S: %s" path reason stderr)
          true
          (Astring_contains.contains stderr (path ^ ": ")
          && Astring_contains.contains stderr reason))
      [
        ("--file", "SELECT lineitem.nosuch FROM lineitem", "unknown column lineitem.nosuch");
        ("--file", "SELECT nosuch.x FROM nosuch", "unknown table nosuch");
        ("--file", "SELECT FROM WHERE", "unexpected token");
        ("--schema", "CREATE TABLE t ROWS abc (x INT)", "expected number");
        ("--schema", "CREATE TABLE t ROWS 5 (x INT, x INT)", "duplicate column t.x");
      ]

(* a --queries number outside 1-22, or --queries on a database without the
   TPC-H queries, is a command-line error (exit 124) *)
let test_tune_refuses_queries () =
  match tune_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    List.iter
      (fun args ->
        match fst (tune_status exe args) with
        | Unix.WEXITED 124 -> ()
        | Unix.WEXITED n ->
          Alcotest.failf "tune %s exited %d, expected 124" (String.concat " " args) n
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          Alcotest.failf "tune stopped by signal %d" n)
      [ [ "--queries=0" ]; [ "--queries=1,23" ]; [ "--db"; "ds1"; "--queries"; "1" ] ]

let suite =
  [
    Alcotest.test_case "pipeline: TPC-H with views" `Quick test_pipeline_tpch_views;
    Alcotest.test_case "pipeline: deterministic" `Quick test_pipeline_deterministic;
    Alcotest.test_case "optimal dominates CTT" `Quick test_optimal_dominates_ctt;
    Alcotest.test_case "whatif: total = sum of entries" `Quick
      test_whatif_total_is_sum_of_entries;
    Alcotest.test_case "instrument: fixpoint stable" `Quick
      test_instrument_fixpoint_stable;
    Alcotest.test_case "requests scale with joins" `Quick
      test_request_counts_scale_with_tables;
    Alcotest.test_case "ddl mentions every structure" `Quick
      test_ddl_mentions_every_structure;
    QCheck_alcotest.to_alcotest prop_cost_bound_dominates;
    QCheck_alcotest.to_alcotest prop_relaxation_never_beats_optimal;
    Alcotest.test_case "tune: unusable input files exit 2" `Quick
      test_tune_refuses_input;
    Alcotest.test_case "tune: bad --queries exits 124" `Quick
      test_tune_refuses_queries;
  ]
