(** Tests for the parallel search layer: the domain pool, the what-if
    cache under concurrent domains, the skyline sweep, and the
    determinism guarantee — tuning at [jobs = 1] and [jobs = 4] must
    produce bit-identical results (recommendation, costs, frontier,
    counters, trace events). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module O = Relax_optimizer
module T = Relax_tuner
module W = Relax_workloads
module Pool = Relax_parallel.Pool

let cat = lazy (Fixtures.small_catalog ())

let workload_of_strings l : Query.workload =
  List.mapi
    (fun i s ->
      Query.entry (Printf.sprintf "q%d" (i + 1)) (Relax_sql.Parser.statement s))
    l

(* --- pool --------------------------------------------------------------- *)

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_order () =
  with_pool ~jobs:4 @@ fun pool ->
  let input = Array.init 100 Fun.id in
  (* uneven task durations shuffle completion order; results must still
     come back in input order *)
  let f x =
    if x mod 7 = 0 then Unix.sleepf 0.001;
    x * x
  in
  Alcotest.(check (array int))
    "order preserved" (Array.map f input) (Pool.map_array pool f input)

let test_pool_sequential_matches () =
  let input = Array.init 37 (fun i -> i - 5) in
  let f x = (2 * x) + 1 in
  let seq = with_pool ~jobs:1 (fun p -> Pool.map_array p f input) in
  let par = with_pool ~jobs:4 (fun p -> Pool.map_array p f input) in
  Alcotest.(check (array int)) "jobs=1 = jobs=4" seq par

let test_pool_empty_and_singleton () =
  with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool (fun x -> x) [||]);
  Alcotest.(check (array int))
    "singleton" [| 9 |]
    (Pool.map_array pool (fun x -> x * x) [| 3 |])

let test_pool_exception_smallest_index () =
  with_pool ~jobs:4 @@ fun pool ->
  let f x = if x >= 10 then failwith (Printf.sprintf "boom-%d" x) else x in
  match Pool.map_array pool f (Array.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* every failing index raises, the smallest one wins deterministically *)
    Alcotest.(check string) "smallest failing index" "boom-10" msg

let test_pool_usable_after_exception () =
  with_pool ~jobs:4 @@ fun pool ->
  (try ignore (Pool.map_array pool (fun _ -> failwith "x") [| 1; 2; 3 |])
   with Failure _ -> ());
  Alcotest.(check (array int))
    "pool still works" [| 2; 4; 6 |]
    (Pool.map_array pool (fun x -> 2 * x) [| 1; 2; 3 |])

(* the accounting is the same whether or not worker domains exist *)
let test_pool_stats () =
  let nap x =
    Unix.sleepf 0.001;
    x
  in
  List.iter
    (fun jobs ->
      with_pool ~jobs @@ fun pool ->
      ignore (Pool.map_array pool nap [||]);
      ignore (Pool.map_array pool nap (Array.init 10 Fun.id));
      ignore (Pool.map_array pool nap (Array.init 5 Fun.id));
      ignore (Pool.map_array pool nap [| 1 |]);
      (* the empty input counts nothing, the singleton fast-path one task
         and no batch *)
      let s = Pool.stats pool in
      let label what = Printf.sprintf "%s at jobs=%d" what jobs in
      Alcotest.(check int) (label "jobs") jobs s.Pool.pool_jobs;
      Alcotest.(check int) (label "tasks") 16 s.Pool.tasks;
      Alcotest.(check int) (label "batches") 2 s.Pool.batches;
      (* sleeping tasks accrue busy time, inline at jobs=1 too *)
      if jobs = 1 then
        Alcotest.(check bool) (label "domain 0 busy") true (s.Pool.busy_s.(0) > 0.0))
    [ 1; 4 ]

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:4 in
  ignore (Pool.map_array pool Fun.id [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* after shutdown the pool degrades to the sequential path *)
  Alcotest.(check (array int))
    "sequential after shutdown" [| 1; 2; 3 |]
    (Pool.map_array pool Fun.id [| 1; 2; 3 |])

(* --- what-if cache under concurrent domains ------------------------------ *)

let test_whatif_concurrent_domains () =
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [
        "SELECT r.a, r.b FROM r WHERE r.a = 5";
        "SELECT r.d FROM r WHERE r.b < 10";
        "SELECT s.x FROM s WHERE s.x = 3";
        "SELECT r.a FROM r, s WHERE r.sid = s.id AND s.x < 50";
      ]
  in
  let selects = (T.Search.prepare w).selects in
  let n = List.length selects in
  let whatif = O.Whatif.create cat in
  let rounds = 5 and domains = 4 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              List.iter
                (fun (qid, _, q) ->
                  ignore (O.Whatif.plan_select whatif Config.empty ~qid q))
                selects
            done))
  in
  Array.iter Domain.join workers;
  let calls, hits = O.Whatif.stats whatif in
  (* the in-flight dedup: racing domains wait for the first requester's
     optimization instead of repeating it, so each key costs one call *)
  Alcotest.(check int) "one call per distinct key" n calls;
  Alcotest.(check int) "every other lookup hits" ((domains * rounds * n) - n)
    hits;
  Alcotest.(check int) "one memoized plan per distinct key" n
    (O.Whatif.cached_plans whatif)

let test_whatif_deterministic_plans () =
  let cat = Lazy.force cat in
  let q = Fixtures.parse_select "SELECT r.a, r.b FROM r WHERE r.a = 5" in
  let whatif = O.Whatif.create cat in
  let p1 = O.Whatif.plan_select whatif Config.empty ~qid:"q" q in
  let p2 = O.Whatif.plan_select whatif Config.empty ~qid:"q" q in
  Alcotest.(check bool) "second lookup hits the cache" true (p1 == p2)

(* --- skyline sweep ------------------------------------------------------ *)

(* the seed's O(n²) pairwise definition, kept as the oracle *)
let skyline_naive (raw : T.Search.candidate list) =
  List.filter
    (fun (c : T.Search.candidate) ->
      not
        (List.exists
           (fun (c' : T.Search.candidate) ->
             c' != c
             && c'.delta_cost <= c.delta_cost
             && c'.delta_space >= c.delta_space
             && (c'.delta_cost < c.delta_cost || c'.delta_space > c.delta_space))
           raw))
    raw

let mk_candidate =
  let tr = T.Transform.Remove_index (Index.on "r" [ "a" ]) in
  fun delta_cost delta_space ->
    { T.Search.tr; penalty = 0.0; delta_cost; delta_space }

let check_skyline msg cands =
  let project (c : T.Search.candidate) = (c.delta_cost, c.delta_space) in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    msg
    (List.map project (skyline_naive cands))
    (List.map project (T.Search.skyline_filter cands))

let test_skyline_matches_naive () =
  check_skyline "empty" [];
  check_skyline "singleton" [ mk_candidate 1.0 2.0 ];
  check_skyline "dominated pair"
    [ mk_candidate 1.0 5.0; mk_candidate 2.0 3.0 ];
  check_skyline "equal points both survive"
    [ mk_candidate 1.0 5.0; mk_candidate 1.0 5.0; mk_candidate 0.5 6.0 ];
  check_skyline "equal space, distinct costs"
    [ mk_candidate 3.0 4.0; mk_candidate 1.0 4.0; mk_candidate 2.0 4.0 ];
  check_skyline "equal cost, distinct spaces"
    [ mk_candidate 2.0 1.0; mk_candidate 2.0 9.0; mk_candidate 2.0 4.0 ];
  check_skyline "negative deltas"
    [ mk_candidate (-1.0) 2.0; mk_candidate (-2.0) 2.0; mk_candidate 0.0 (-1.0) ];
  (* a deterministic pseudo-random cloud *)
  let state = ref 123456789 in
  let next () =
    state := (1103515245 * !state) + 12345;
    float_of_int (abs !state mod 1000) /. 100.0
  in
  let cloud = List.init 200 (fun _ -> mk_candidate (next ()) (next ())) in
  check_skyline "random cloud" cloud;
  (* duplicated coordinates exercise the equal-ΔS grouping *)
  let gridded =
    List.init 150 (fun _ ->
        mk_candidate
          (float_of_int (abs (int_of_float (next () *. 10.0)) mod 5))
          (float_of_int (abs (int_of_float (next () *. 10.0)) mod 5)))
  in
  check_skyline "gridded cloud" gridded

let test_skyline_preserves_order () =
  (* (1.0, 5.0) is dominated by (0.5, 6.0); the two survivors are
     incomparable and must come back in input order *)
  let cands =
    [ mk_candidate 1.0 5.0; mk_candidate 0.5 6.0; mk_candidate 0.3 2.0 ]
  in
  let kept = T.Search.skyline_filter cands in
  let projected = List.map (fun (c : T.Search.candidate) -> c.delta_cost) kept in
  Alcotest.(check (list (float 0.0))) "input order kept" [ 0.5; 0.3 ] projected

(* --- determinism across jobs -------------------------------------------- *)

let event_histogram lines =
  let h = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let ev =
        match Relax_obs.Json.of_string line with
        | Ok j -> (
          match Relax_obs.Json.member "event" j with
          | Some (Relax_obs.Json.String s) -> s
          | _ -> "<malformed>")
        | Error _ -> "<unparsable>"
      in
      Hashtbl.replace h ev (1 + Option.value ~default:0 (Hashtbl.find_opt h ev)))
    lines;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let tune_with_jobs ~jobs ~mode ~budget ~iters cat w =
  let sink, lines = Relax_obs.Trace.memory () in
  let obs = Relax_obs.Recorder.create ~sink () in
  let opts =
    {
      (T.Tuner.default_options ~mode ~space_budget:budget ()) with
      max_iterations = iters;
      jobs;
    }
  in
  let r = T.Tuner.tune ~obs cat w opts in
  (r, Relax_obs.Recorder.snapshot obs, lines ())

let check_identical ~label (r1, m1, l1) (r4, m4, l4) =
  let open T.Tuner in
  let chk name b = Alcotest.(check bool) (label ^ ": " ^ name) true b in
  chk "recommended fingerprint"
    (Config.fingerprint r1.recommended = Config.fingerprint r4.recommended);
  chk "recommended cost" (r1.recommended_cost = r4.recommended_cost);
  chk "recommended size" (r1.recommended_size = r4.recommended_size);
  chk "optimal cost" (r1.optimal_cost = r4.optimal_cost);
  chk "improvement" (r1.improvement = r4.improvement);
  chk "frontier" (r1.frontier = r4.frontier);
  chk "best trace" (r1.best_trace = r4.best_trace);
  chk "iterations" (r1.iterations = r4.iterations);
  chk "per-query costs" (r1.per_query = r4.per_query);
  let open Relax_obs.Metrics in
  chk "what-if calls" (m1.what_if_calls = m4.what_if_calls);
  chk "cache hits" (m1.cache_hits = m4.cache_hits);
  chk "plans re-optimized" (m1.plans_reoptimized = m4.plans_reoptimized);
  chk "plans patched" (m1.plans_patched = m4.plans_patched);
  chk "shortcut aborts" (m1.shortcut_aborts = m4.shortcut_aborts);
  chk "iterations counter" (m1.iterations = m4.iterations);
  chk "configurations evaluated"
    (m1.configurations_evaluated = m4.configurations_evaluated);
  chk "transforms generated"
    (m1.transforms_generated = m4.transforms_generated);
  chk "transforms applied" (m1.transforms_applied = m4.transforms_applied);
  chk "pool trace" (m1.pool_trace = m4.pool_trace);
  let named name =
    List.assoc_opt name m1.named_counters = List.assoc_opt name m4.named_counters
  in
  (* CBV optimizations bypass the what-if layer: only this counter sees
     them *)
  chk "optimizer optimizations" (named "optimizer.optimizations");
  (* the bound memo is merged on the main domain in candidate order, so
     its hits — and every access-path request — match too *)
  chk "access-path requests" (named "access_path.requests");
  chk "bound memo hits" (named "access_path.memo_hits");
  Alcotest.(check (list (pair string int)))
    (label ^ ": trace event counts")
    (event_histogram l1) (event_histogram l4)

let test_determinism_tpch () =
  let cat = W.Tpch.catalog ~scale:0.01 () in
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14 ] in
  let budget =
    Config.total_bytes cat Config.empty *. 1.4
  in
  List.iter
    (fun (label, mode) ->
      let run jobs = tune_with_jobs ~jobs ~mode ~budget ~iters:60 cat w in
      check_identical ~label (run 1) (run 4))
    [
      ("tpch indexes", T.Tuner.Indexes_only);
      ("tpch views", T.Tuner.Indexes_and_views);
    ]

let test_determinism_updates () =
  let schema = W.Star.schema ~scale:0.01 () in
  let profile =
    { W.Generator.default_profile with update_fraction = 0.4; max_tables = 2 }
  in
  let w = W.Generator.workload ~seed:17 ~profile schema ~n:8 in
  let budget = Config.total_bytes schema.catalog Config.empty *. 1.3 in
  let run jobs =
    tune_with_jobs ~jobs ~mode:T.Tuner.Indexes_and_views ~budget ~iters:50
      schema.catalog w
  in
  check_identical ~label:"updates" (run 1) (run 4)

let suite =
  [
    Alcotest.test_case "pool: order-preserving map" `Quick test_pool_order;
    Alcotest.test_case "pool: jobs=1 equals jobs=4" `Quick
      test_pool_sequential_matches;
    Alcotest.test_case "pool: empty and singleton" `Quick
      test_pool_empty_and_singleton;
    Alcotest.test_case "pool: smallest-index exception wins" `Quick
      test_pool_exception_smallest_index;
    Alcotest.test_case "pool: usable after exception" `Quick
      test_pool_usable_after_exception;
    Alcotest.test_case "pool: stats counters" `Quick test_pool_stats;
    Alcotest.test_case "pool: shutdown idempotent, then sequential" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "whatif: cache under concurrent domains" `Quick
      test_whatif_concurrent_domains;
    Alcotest.test_case "whatif: repeated lookup is a cache hit" `Quick
      test_whatif_deterministic_plans;
    Alcotest.test_case "skyline: sweep matches the pairwise oracle" `Quick
      test_skyline_matches_naive;
    Alcotest.test_case "skyline: survivors keep input order" `Quick
      test_skyline_preserves_order;
    Alcotest.test_case "determinism: TPC-H, jobs=1 vs jobs=4" `Slow
      test_determinism_tpch;
    Alcotest.test_case "determinism: update workload, jobs=1 vs jobs=4" `Slow
      test_determinism_updates;
  ]
