(** Tests for the catalog substrate: RNG determinism, histograms,
    statistics. *)

open Relax_sql.Types
module Rng = Relax_catalog.Rng
module Histogram = Relax_catalog.Histogram
module Distribution = Relax_catalog.Distribution
module Catalog = Relax_catalog.Catalog

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Fixtures.check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < 10)
  done

let test_zipf_skews_low_ranks () =
  let rng = Rng.create 17 in
  let low = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if Rng.zipf rng ~n:100 ~skew:1.0 <= 10 then incr low
  done;
  (* with skew 1.0 the first 10 ranks hold well over a third of the mass *)
  Alcotest.(check bool) "zipf mass at low ranks" true (!low > n / 3)

let test_histogram_full_range () =
  let h = Histogram.build ~seed:3 ~rows:10_000 (Distribution.Uniform (0.0, 100.0)) in
  let s = Histogram.selectivity_range h ~lo:neg_infinity ~hi:infinity in
  Fixtures.check_float ~eps:1e-6 "full range" 1.0 s

let test_histogram_half_range () =
  let h = Histogram.build ~seed:3 ~rows:10_000 (Distribution.Uniform (0.0, 100.0)) in
  let s = Histogram.selectivity_range h ~lo:0.0 ~hi:50.0 in
  Alcotest.(check bool) "about half" true (s > 0.4 && s < 0.6)

let test_histogram_eq () =
  let h = Histogram.build ~seed:3 ~rows:10_000 (Distribution.Uniform (0.0, 100.0)) in
  let s = Histogram.selectivity_eq h 50.0 in
  Alcotest.(check bool) "equality is selective" true (s > 0.0 && s < 0.1)

let test_histogram_of_values () =
  let h = Histogram.of_values ~buckets:4 [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ] in
  Fixtures.check_float ~eps:1e-6 "min" 1.0 (Histogram.min_value h);
  Fixtures.check_float ~eps:1e-6 "max" 8.0 (Histogram.max_value h)

let test_catalog_stats () =
  let cat = Fixtures.small_catalog () in
  Fixtures.check_float "rows r" 100_000.0 (Catalog.rows cat "r");
  let stats = Catalog.col_stats cat (Column.make "r" "id") in
  Fixtures.check_float "serial distinct" 100_000.0 stats.distinct;
  Alcotest.(check int) "r columns" 8 (List.length (Catalog.columns_of cat "r"))

(* --- schema DDL ------------------------------------------------------ *)

let schema_src = {|
CREATE TABLE users ROWS 5000 (
  id INT SERIAL,
  country INT UNIFORM(0, 99),
  income FLOAT NORMAL(60000, 25000),
  segment INT ZIPF(8, 0.4),
  name VARCHAR(40)
);
CREATE TABLE posts ROWS 20000 (
  id INT SERIAL,
  author INT REFERENCES users(id),
  score INT ZIPF(1000, 0.9)
);
|}

let test_schema_parse () =
  let cat, joins = Relax_catalog.Schema_parser.parse schema_src in
  Alcotest.(check int) "two tables" 2 (List.length (Catalog.table_names cat));
  Fixtures.check_float "users rows" 5000.0 (Catalog.rows cat "users");
  Alcotest.(check int) "one fk edge" 1 (List.length joins);
  let s = Catalog.col_stats cat (Column.make "users" "country") in
  Alcotest.(check bool) "country distinct ~100" true
    (s.distinct >= 90.0 && s.distinct <= 110.0)

let test_schema_references_sets_range () =
  let cat, _ = Relax_catalog.Schema_parser.parse schema_src in
  let s = Catalog.col_stats cat (Column.make "posts" "author") in
  (* uniform over the parent's 5000-row key range *)
  Alcotest.(check bool) "fk max below parent rows" true (s.max_v <= 4999.5)

let test_schema_default_distribution () =
  let cat, _ = Relax_catalog.Schema_parser.parse schema_src in
  let s = Catalog.col_stats cat (Column.make "users" "name") in
  Fixtures.check_float "varchar width" 20.0 s.width

let test_schema_errors () =
  let bad =
    [
      "CREATE users ROWS 5 (id INT SERIAL)";
      "CREATE TABLE t (id INT SERIAL)";
      "CREATE TABLE t ROWS 5 (id INT REFERENCES missing(id))";
      "CREATE TABLE t ROWS 5 (id WIBBLE)";
    ]
  in
  List.iter
    (fun src ->
      match Relax_catalog.Schema_parser.parse src with
      | exception Relax_catalog.Schema_parser.Schema_error _ -> ()
      | exception Relax_sql.Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected schema error for %S" src)
    bad

(* --- property tests ------------------------------------------------- *)

let prop_selectivity_bounds =
  QCheck.Test.make ~name:"range selectivity in [0,1]" ~count:300
    QCheck.(pair (float_range (-200.) 200.) (float_range (-200.) 200.))
    (fun (a, b) ->
      let h =
        Histogram.build ~seed:11 ~rows:1000 (Distribution.Uniform (0.0, 100.0))
      in
      let lo = Float.min a b and hi = Float.max a b in
      let s = Histogram.selectivity_range h ~lo ~hi in
      s >= 0.0 && s <= 1.0)

let prop_selectivity_additive =
  QCheck.Test.make ~name:"selectivity additive over split point" ~count:200
    QCheck.(float_range 0.0 100.0)
    (fun mid ->
      let h =
        Histogram.build ~seed:11 ~rows:1000 (Distribution.Uniform (0.0, 100.0))
      in
      let left = Histogram.selectivity_range h ~lo:neg_infinity ~hi:mid in
      let right = Histogram.selectivity_range h ~lo:mid ~hi:infinity in
      (* buckets overlap at the split point, so allow a one-bucket slack *)
      left +. right >= 0.99 && left +. right <= 1.1)

let prop_selectivity_monotone =
  QCheck.Test.make ~name:"selectivity monotone in range width" ~count:200
    QCheck.(pair (float_range 0.0 100.0) (float_range 0.0 50.0))
    (fun (hi, delta) ->
      let h =
        Histogram.build ~seed:11 ~rows:1000 (Distribution.Uniform (0.0, 100.0))
      in
      let narrow = Histogram.selectivity_range h ~lo:0.0 ~hi in
      let wide = Histogram.selectivity_range h ~lo:0.0 ~hi:(hi +. delta) in
      wide >= narrow -. 1e-9)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skews_low_ranks;
    Alcotest.test_case "histogram full range" `Quick test_histogram_full_range;
    Alcotest.test_case "histogram half range" `Quick test_histogram_half_range;
    Alcotest.test_case "histogram equality" `Quick test_histogram_eq;
    Alcotest.test_case "histogram of values" `Quick test_histogram_of_values;
    Alcotest.test_case "catalog stats" `Quick test_catalog_stats;
    Alcotest.test_case "schema: parse" `Quick test_schema_parse;
    Alcotest.test_case "schema: references" `Quick test_schema_references_sets_range;
    Alcotest.test_case "schema: defaults" `Quick test_schema_default_distribution;
    Alcotest.test_case "schema: errors" `Quick test_schema_errors;
    QCheck_alcotest.to_alcotest prop_selectivity_bounds;
    QCheck_alcotest.to_alcotest prop_selectivity_additive;
    QCheck_alcotest.to_alcotest prop_selectivity_monotone;
  ]
