(* The benchmark's own checks: its statistics, its metric table against
   BENCHMARK.json, and shrunk seeded runs of every workload. *)

open Relax_benchmark
module Json = Relax_obs.Json

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "one" 7.0 (Stats.median [ 7.0 ])

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let check label (a, b, c) (x, y, z) =
    Alcotest.check feq (label ^ " q1") a x;
    Alcotest.check feq (label ^ " q2") b y;
    Alcotest.check feq (label ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check "1..4" (1.25, 2.5, 3.75) (q [ 4.0; 3.0; 2.0; 1.0 ]);
  check "two" (0.75, 1.5, 2.25) (q [ 1.0; 2.0 ])

let test_highest_percentile () =
  let hp n = Stats.highest_percentile n in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "19 samples" None (hp 19);
  Alcotest.check opt "20 samples" (Some 50.0) (hp 20);
  Alcotest.check opt "99 samples" (Some 50.0) (hp 99);
  Alcotest.check opt "100 samples" (Some 90.0) (hp 100);
  Alcotest.check opt "1000 samples" (Some 99.0) (hp 1000);
  Alcotest.check opt "10000 samples" (Some 99.9) (hp 10000);
  Alcotest.check feq "nearest-rank p90" 9.0
    (Stats.percentile (List.init 10 (fun i -> float_of_int (i + 1))) 90.0)

(* BENCHMARK.json sits at the root of the repository (a dependency of
   this test in the dune file). *)
let declared =
  lazy
    (let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
     match Json.of_string text with
     | Ok j -> j
     | Error msg -> Alcotest.failf "BENCHMARK.json: %s" msg)

let list_of key =
  match Json.member key (Lazy.force declared) with
  | Some (Json.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json: no list %s" key

let str key j =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "BENCHMARK.json: entry without %s" key

let names_units key = List.map (fun j -> (str "name" j, str "unit" j)) (list_of key)
let pairs = Alcotest.(list (pair string string))

let test_declared_metrics () =
  Alcotest.check pairs "end_to_end" (names_units "end_to_end") Bench.end_to_end;
  Alcotest.check pairs "per_layer" (names_units "per_layer") Bench.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (List.map (str "name") (list_of "workloads"))
    (List.map (fun (w : Bench.workload) -> w.name) Bench.workloads)

(* Shrunk runs at seed 3, each made once and shared between tests. *)
let shrunk_run =
  let memo = Hashtbl.create 16 in
  fun ?(traced = false) (w : Bench.workload) ->
    match Hashtbl.find_opt memo (w.name, traced) with
    | Some r -> r
    | None ->
      let r =
        Bench.run ~setups:1 (Bench.shrunk w) ~seed:3 ~seconds:0.0 ~traced
          ~trace_dir:(Filename.get_temp_dir_name ())
      in
      Hashtbl.replace memo (w.name, traced) r;
      r

(* Each workload, untraced and traced, emits exactly its declared
   metrics with their units, and its outputs pass every check. *)
let test_emits_declared () =
  List.iter
    (fun (w : Bench.workload) ->
      List.iter
        (fun (traced, declared) ->
          let r = shrunk_run ~traced w in
          let label = Printf.sprintf "%s traced=%b" w.name traced in
          Alcotest.(check (list string)) (label ^ " errors") [] r.errors;
          Alcotest.(check bool) (label ^ " correct") true r.correct;
          Alcotest.check pairs label declared
            (List.map (fun (n, _, u) -> (n, u)) r.metrics))
        [ (false, Bench.end_to_end); (true, Bench.per_layer) ])
    Bench.workloads

let deterministic (r : Bench.result) =
  ( r.outcome,
    List.filter
      (fun (n, _, _) -> List.mem n [ "what_if_calls"; "cost_pct" ])
      r.metrics )

(* A second run of the same seed reproduces the first's outputs; another
   seed changes the inputs. *)
let test_deterministic () =
  let w = Option.get (Bench.find "relax-long") in
  let again =
    Bench.run ~setups:1 (Bench.shrunk w) ~seed:3 ~seconds:0.0 ~traced:false
      ~trace_dir:(Filename.get_temp_dir_name ())
  in
  Alcotest.(check bool) "same outputs" true
    (deterministic (shrunk_run w) = deterministic again);
  Alcotest.(check bool) "the seed reaches the inputs" true
    ((Bench.make_inputs (Bench.shrunk w) ~seed:3).lines
     <> (Bench.make_inputs (Bench.shrunk w) ~seed:4).lines)

(* A recommendation that does not fit the space budget is a failed
   operation. *)
let test_over_budget_fails () =
  let w = Bench.shrunk (Option.get (Bench.find "relax-long")) in
  let inputs = Bench.make_inputs w ~seed:0 in
  let r =
    Bench.tune inputs
      (Bench.tune_options inputs ~iterations:20 ~whatif_budget:None ~jobs:1)
  in
  let tally = Bench.new_tally () in
  Alcotest.(check bool) "fits" true (Bench.check_tune tally inputs r);
  Alcotest.(check int) "no failure" 0 tally.failed;
  let data = Relax_physical.Config.total_bytes (Bench.catalog inputs)
      Relax_physical.Config.empty in
  let over =
    { r with recommended = r.optimal; recommended_cost = r.optimal_cost }
  in
  Alcotest.(check bool) "over budget" false
    (Bench.check_tune tally { inputs with budget = data } over);
  Alcotest.(check int) "counted failed" 1 tally.failed

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "highest percentile" `Quick test_highest_percentile;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "declared in BENCHMARK.json" `Quick test_declared_metrics;
          Alcotest.test_case "emitted per workload" `Quick test_emits_declared;
        ] );
      ( "runs",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "over budget fails" `Quick test_over_budget_fails;
        ] );
    ]
