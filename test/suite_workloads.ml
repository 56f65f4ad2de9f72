(** Tests for the workload substrate: the TPC-H analogue, the synthetic
    databases, and the random generator. *)

module Query = Relax_sql.Query
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config
module O = Relax_optimizer
module W = Relax_workloads

let test_tpch_parses_22 () =
  let w = W.Tpch.workload () in
  Alcotest.(check int) "22 queries" 22 (List.length w)

let test_tpch_all_optimize () =
  let cat = W.Tpch.catalog ~scale:0.01 () in
  List.iter
    (fun (e : Query.entry) ->
      match e.stmt with
      | Select q ->
        let p = O.Optimizer.optimize cat Config.empty q in
        Alcotest.(check bool) (e.qid ^ " has finite cost") true
          (Float.is_finite p.cost && p.cost > 0.0)
      | Dml _ -> ())
    (W.Tpch.workload ())

let test_tpch_cardinality_ratios () =
  let cat = W.Tpch.catalog ~scale:0.1 () in
  (* lineitem ~ 4x orders ~ 40x customer, as in TPC-H *)
  let li = Catalog.rows cat "lineitem" and ord = Catalog.rows cat "orders" in
  let cust = Catalog.rows cat "customer" in
  Alcotest.(check bool) "lineitem/orders = 4" true
    (li /. ord > 3.5 && li /. ord < 4.5);
  Alcotest.(check bool) "orders/customer = 10" true
    (ord /. cust > 9.0 && ord /. cust < 11.0)

let test_tpch_subset () =
  Alcotest.(check int) "subset" 3 (List.length (W.Tpch.workload_subset [ 1; 5; 9 ]))

let test_tpch_subset_range () =
  List.iter
    (fun nums ->
      match W.Tpch.workload_subset nums with
      | _ -> Alcotest.failf "subset [%s] accepted" (String.concat "; " (List.map string_of_int nums))
      | exception Invalid_argument _ -> ())
    [ [ 0 ]; [ 23 ]; [ 1; 3; 99 ]; [ -1 ] ]

(* the check tune's loader runs on a --file workload: a statement on a
   column TPC-H does not have is refused, not tuned into an index on it *)
let test_unknown_names_tpch () =
  let cat = W.Tpch.catalog ~scale:0.02 () in
  let names sql =
    List.concat_map
      (fun (e : Relax_sql.Query.entry) -> Catalog.unknown_names cat e.stmt)
      (Relax_sql.Parser.workload sql)
  in
  Alcotest.(check (list string))
    "lineitem.nosuch" [ "column lineitem.nosuch" ]
    (names "SELECT lineitem.nosuch FROM lineitem");
  Alcotest.(check (list string))
    "unknown table" [ "table nosuch" ] (names "SELECT nosuch.x FROM nosuch");
  Alcotest.(check (list string))
    "update" [ "column lineitem.nosuch"; "column lineitem.zz" ]
    (names "UPDATE lineitem SET nosuch = 1 WHERE lineitem.zz < 3");
  Alcotest.(check (list string))
    "the 22 queries resolve" []
    (List.concat_map
       (fun (e : Relax_sql.Query.entry) -> Catalog.unknown_names cat e.stmt)
       (W.Tpch.workload ()))

let test_star_schema_optimizes () =
  let schema = W.Star.schema ~scale:0.01 () in
  let w = W.Generator.workload ~seed:3 schema ~n:10 in
  Alcotest.(check int) "10 statements" 10 (List.length w);
  List.iter
    (fun (e : Query.entry) ->
      match e.stmt with
      | Select q ->
        let p = O.Optimizer.optimize schema.catalog Config.empty q in
        Alcotest.(check bool) "finite" true (Float.is_finite p.cost)
      | Dml _ -> ())
    w

let test_generator_deterministic () =
  let schema = W.Bench_db.schema ~scale:0.01 () in
  let w1 = W.Generator.workload ~seed:11 schema ~n:8 in
  let w2 = W.Generator.workload ~seed:11 schema ~n:8 in
  List.iter2
    (fun (a : Query.entry) (b : Query.entry) ->
      Alcotest.(check string) "same statement"
        (Relax_sql.Pretty.statement_to_string a.stmt)
        (Relax_sql.Pretty.statement_to_string b.stmt))
    w1 w2

let test_generator_seed_variation () =
  let schema = W.Bench_db.schema ~scale:0.01 () in
  let w1 = W.Generator.workload ~seed:11 schema ~n:8 in
  let w2 = W.Generator.workload ~seed:12 schema ~n:8 in
  let s w =
    String.concat ";"
      (List.map (fun (e : Query.entry) -> Relax_sql.Pretty.statement_to_string e.stmt) w)
  in
  Alcotest.(check bool) "different seeds differ" true (s w1 <> s w2)

let test_generator_update_fraction () =
  let schema = W.Bench_db.schema ~scale:0.01 () in
  let profile =
    { W.Generator.default_profile with update_fraction = 1.0 }
  in
  let w = W.Generator.workload ~seed:4 ~profile schema ~n:10 in
  Alcotest.(check int) "all DML" 10 (List.length (Query.dml_entries w))

let test_generator_queries_valid () =
  (* every generated statement must survive a print/parse round-trip *)
  let schema = W.Bench_db.tpch_schema ~scale:0.01 () in
  let profile = { W.Generator.default_profile with update_fraction = 0.3 } in
  let w = W.Generator.workload ~seed:17 ~profile schema ~n:20 in
  List.iter
    (fun (e : Query.entry) ->
      let s = Relax_sql.Pretty.statement_to_string e.stmt in
      match Relax_sql.Parser.statement s with
      | _ -> ()
      | exception ex ->
        Alcotest.failf "generated statement does not re-parse: %s (%s)" s
          (Printexc.to_string ex))
    w

let test_compress_merges_templates () =
  (* same template, different constants -> one representative *)
  let wl =
    List.mapi
      (fun i s -> Query.entry (Printf.sprintf "q%d" i) (Relax_sql.Parser.statement s))
      [
        "SELECT tenk1.value FROM tenk1 WHERE tenk1.unique1 = 5";
        "SELECT tenk1.value FROM tenk1 WHERE tenk1.unique1 = 99";
        "SELECT tenk1.value FROM tenk1 WHERE tenk1.unique1 = 1234";
        "SELECT tenk1.value FROM tenk1 WHERE tenk1.onepercent = 3";
        "UPDATE tenk1 SET value = value + 1 WHERE unique1 = 7";
        "UPDATE tenk1 SET value = value + 1 WHERE unique1 = 8";
      ]
  in
  let before, after = W.Compress.compression_ratio wl in
  Alcotest.(check int) "before" 6 before;
  (* three templates: two selects (different columns) + one update *)
  Alcotest.(check int) "after" 3 after;
  let compressed = W.Compress.compress wl in
  let rep = List.hd compressed in
  Fixtures.check_float "weights summed" 3.0 rep.weight

let test_compress_distinguishes_shapes () =
  let s1 = Relax_sql.Parser.statement "SELECT tenk1.value FROM tenk1 WHERE tenk1.unique1 = 5" in
  let s2 = Relax_sql.Parser.statement "SELECT tenk1.value FROM tenk1 WHERE tenk1.unique1 < 5" in
  Alcotest.(check bool) "eq vs range differ" true
    (W.Compress.signature s1 <> W.Compress.signature s2)

let test_compress_same_recommendation () =
  (* tuning the compressed workload must recommend as well as the full one *)
  let schema = W.Bench_db.schema ~scale:0.01 () in
  let base = W.Generator.workload ~seed:31 schema ~n:6 in
  (* duplicate with different ids: weights should absorb the repetition *)
  let wl =
    base
    @ List.map (fun (e : Query.entry) -> { e with qid = e.qid ^ "b" }) base
  in
  let compressed = W.Compress.compress wl in
  Alcotest.(check int) "halved" (List.length base) (List.length compressed);
  let tune w =
    Relax_tuner.Tuner.tune schema.catalog w
      (Relax_tuner.Tuner.default_options ~mode:Relax_tuner.Tuner.Indexes_only
         ~space_budget:infinity ())
  in
  let full = tune wl and comp = tune compressed in
  Fixtures.check_float ~eps:1e-6 "same optimal cost" full.optimal_cost
    comp.optimal_cost

let test_refresh_workload () =
  let rf = W.Tpch.refresh_workload ~scale:0.02 () in
  Alcotest.(check int) "four statements" 4 (List.length rf);
  Alcotest.(check bool) "all DML" true (List.length (Query.dml_entries rf) = 4)

let prop_generated_select_connected =
  QCheck.Test.make ~name:"generated multi-table queries are connected"
    ~count:30 QCheck.small_int (fun seed ->
      let schema = W.Bench_db.tpch_schema ~scale:0.01 () in
      let w = W.Generator.workload ~seed schema ~n:4 in
      List.for_all
        (fun (e : Query.entry) ->
          match e.stmt with
          | Query.Select q ->
            let n = List.length q.body.tables in
            n = 1 || List.length q.body.joins >= n - 1
          | Query.Dml _ -> true)
        w)

let prop_reparameterize_preserves_signature =
  QCheck.Test.make ~name:"reparameterize preserves the template signature"
    ~count:25 QCheck.small_int (fun seed ->
      let schema = W.Bench_db.tpch_schema ~scale:0.01 () in
      let profile = { W.Generator.default_profile with update_fraction = 0.2 } in
      let wl = W.Generator.workload ~seed ~profile schema ~n:5 in
      let rng = Relax_catalog.Rng.create (seed + 1) in
      let re = W.Generator.reparameterize schema rng wl in
      List.for_all2
        (fun (a : Query.entry) (b : Query.entry) ->
          W.Compress.signature a.stmt = W.Compress.signature b.stmt)
        wl re)

let prop_compress_idempotent =
  QCheck.Test.make ~name:"compression is idempotent" ~count:25
    QCheck.small_int (fun seed ->
      let schema = W.Bench_db.schema ~scale:0.01 () in
      let wl = W.Generator.workload ~seed schema ~n:10 in
      let once = W.Compress.compress wl in
      let twice = W.Compress.compress once in
      List.length once = List.length twice
      && List.for_all2
           (fun (a : Query.entry) (b : Query.entry) ->
             a.qid = b.qid && a.weight = b.weight)
           once twice)

let prop_compress_preserves_total_weight =
  QCheck.Test.make ~name:"compression preserves total weight" ~count:25
    QCheck.small_int (fun seed ->
      let schema = W.Bench_db.schema ~scale:0.01 () in
      let wl = W.Generator.workload ~seed schema ~n:12 in
      let total w =
        List.fold_left (fun a (e : Query.entry) -> a +. e.weight) 0.0 w
      in
      Float.abs (total wl -. total (W.Compress.compress wl)) < 1e-9)

let suite =
  [
    Alcotest.test_case "tpch: 22 queries" `Quick test_tpch_parses_22;
    Alcotest.test_case "tpch: all optimize" `Quick test_tpch_all_optimize;
    Alcotest.test_case "tpch: cardinality ratios" `Quick test_tpch_cardinality_ratios;
    Alcotest.test_case "tpch: subset" `Quick test_tpch_subset;
    Alcotest.test_case "star schema" `Quick test_star_schema_optimizes;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator seeds differ" `Quick test_generator_seed_variation;
    Alcotest.test_case "generator update fraction" `Quick
      test_generator_update_fraction;
    Alcotest.test_case "generator round-trip" `Quick test_generator_queries_valid;
    Alcotest.test_case "compress: merges templates" `Quick test_compress_merges_templates;
    Alcotest.test_case "compress: distinguishes shapes" `Quick
      test_compress_distinguishes_shapes;
    Alcotest.test_case "compress: same recommendation" `Quick
      test_compress_same_recommendation;
    Alcotest.test_case "tpch refresh functions" `Quick test_refresh_workload;
    QCheck_alcotest.to_alcotest prop_generated_select_connected;
    QCheck_alcotest.to_alcotest prop_reparameterize_preserves_signature;
    QCheck_alcotest.to_alcotest prop_compress_idempotent;
    QCheck_alcotest.to_alcotest prop_compress_preserves_total_weight;
    Alcotest.test_case "tpch: subset refuses numbers outside 1-22" `Quick
      test_tpch_subset_range;
    Alcotest.test_case "unknown names: a --file workload on TPC-H" `Quick
      test_unknown_names_tpch;
  ]
