(** Multi-core tests that only mean something on a big substrate: the
    jobs=1 vs jobs=max determinism guarantee on the generated 104-statement
    pool, the substrate generator itself, the pool oversubscription
    warning counters, and the on-disk what-if bound cache round-trip.

    The determinism-at-scale case needs real parallelism to be a real
    test, so it is gated on [Domain.recommended_domain_count () >= 4] and
    visibly skipped (not silently passed) on smaller hosts — CI's
    multi-core runners execute it. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module O = Relax_optimizer
module T = Relax_tuner
module W = Relax_workloads
module Pool = Relax_parallel.Pool
module Obs = Relax_obs

(* --- substrate generator ------------------------------------------------ *)

let qids w = List.map (fun (e : Query.entry) -> e.qid) w

let statements w =
  List.map
    (fun (e : Query.entry) -> Relax_sql.Pretty.statement_to_string e.stmt)
    w

let test_substrate_pool_shape () =
  let w = W.Substrate.pool () in
  Alcotest.(check int) "default pool is 26x4 = 104" 104 (List.length w);
  let ids = qids w in
  Alcotest.(check int)
    "qids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  (* reps reparameterize constants, never the template shape: every rep
     family shares a base qid prefix *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "qid %s carries a rep suffix" id)
        true
        (match String.rindex_opt id 'r' with
        | Some _ -> String.contains id '-'
        | None -> false))
    ids

let test_substrate_pool_deterministic () =
  let w1 = W.Substrate.pool () and w2 = W.Substrate.pool () in
  Alcotest.(check (list string)) "same seed, same qids" (qids w1) (qids w2);
  Alcotest.(check (list string))
    "same seed, same statements" (statements w1) (statements w2);
  let w3 = W.Substrate.pool ~seed:(W.Substrate.default_seed + 1) () in
  Alcotest.(check bool)
    "different seed, different statements" true
    (statements w1 <> statements w3)

let test_substrate_pool_scales () =
  let w = W.Substrate.pool ~templates:125 ~reps:8 () in
  Alcotest.(check int) "125x8 = 1000 statements" 1000 (List.length w);
  let ids = qids w in
  Alcotest.(check int)
    "1000 unique qids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_substrate_pool_invalid () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "templates = 0 rejected" true
    (raises (fun () -> W.Substrate.pool ~templates:0 ()));
  Alcotest.(check bool)
    "reps = 0 rejected" true
    (raises (fun () -> W.Substrate.pool ~reps:0 ()))

let test_substrate_catalog_sf () =
  let base = W.Substrate.catalog ~sf:1.0 () in
  let big = W.Substrate.catalog ~sf:10.0 () in
  let bytes c = Config.total_bytes c Config.empty in
  (* statistics-only: SF-10 is ~10x the data of SF-1 in the stats, for
     free in memory *)
  let ratio = bytes big /. bytes base in
  Alcotest.(check bool)
    (Printf.sprintf "SF-10 / SF-1 total bytes = %.2f in [8, 12]" ratio)
    true
    (ratio > 8.0 && ratio < 12.0)

(* --- pool oversubscription warning counters ----------------------------- *)

let test_pool_oversubscription_counters () =
  let hw = Domain.recommended_domain_count () in
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_ambient r (fun () ->
      let pool = Pool.create ~jobs:(hw + 3) in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          (* the explicit request is honoured verbatim, not clamped *)
          Alcotest.(check int) "jobs honoured" (hw + 3) (Pool.jobs pool)));
  let m = Obs.Recorder.snapshot r in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name m.Obs.Metrics.named_counters)
  in
  Alcotest.(check int) "oversubscribed flagged once" 1
    (counter "pool.oversubscribed");
  Alcotest.(check int) "oversubscribed_by is the excess" 3
    (counter "pool.oversubscribed_by")

let test_pool_within_hw_no_warning () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_ambient r (fun () ->
      let pool = Pool.create ~jobs:1 in
      Pool.shutdown pool);
  let m = Obs.Recorder.snapshot r in
  Alcotest.(check bool) "no oversubscription counter" true
    (List.assoc_opt "pool.oversubscribed" m.Obs.Metrics.named_counters = None)

(* --- on-disk what-if bound cache ---------------------------------------- *)

let with_temp_file f =
  let file = Filename.temp_file "relax-whatif" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let probe_queries =
  [
    ("m1", [ "r" ], "SELECT r.a, r.b FROM r WHERE r.a = 5");
    ("m2", [ "r" ], "SELECT r.d FROM r WHERE r.b < 10");
    ("m3", [ "s" ], "SELECT s.x FROM s WHERE s.x = 3");
    ("m4", [ "r"; "s" ], "SELECT r.a FROM r, s WHERE r.sid = s.id AND s.x < 50");
  ]

let probe_configs =
  [
    Config.empty;
    Config.of_indexes [ Index.on "r" [ "a" ] ];
    Config.of_indexes [ Index.on "r" [ "b"; "d" ]; Index.on "s" [ "x" ] ];
  ]

(* cost a subset of (query, config) pairs selected by [mask], then
   save/load through a temp file into a fresh instance on the same
   catalog and require identical advisory intervals on every probe *)
let roundtrip_preserves_intervals mask =
  let cat = Fixtures.small_catalog () in
  let original = O.Whatif.create cat in
  List.iteri
    (fun i (qid, _, sql) ->
      List.iteri
        (fun j config ->
          if mask land (1 lsl ((i * List.length probe_configs) + j)) <> 0 then
            ignore
              (O.Whatif.plan_select original config ~qid
                 (Fixtures.parse_select sql)))
        probe_configs)
    probe_queries;
  with_temp_file @@ fun file ->
  let saved =
    match O.Whatif.save_bounds original ~file with
    | Ok n -> n
    | Error msg -> QCheck.Test.fail_reportf "save failed: %s" msg
  in
  let reloaded = O.Whatif.create cat in
  (match O.Whatif.load_bounds reloaded ~file with
  | Ok n ->
    if n <> saved then
      QCheck.Test.fail_reportf "saved %d records but loaded %d" saved n
  | Error msg -> QCheck.Test.fail_reportf "load failed: %s" msg);
  List.iter
    (fun (qid, tables, _) ->
      List.iter
        (fun config ->
          let lo1, hi1 = O.Whatif.cost_interval original config ~qid ~tables in
          let lo2, hi2 = O.Whatif.cost_interval reloaded config ~qid ~tables in
          if not (lo1 = lo2 && hi1 = hi2) then
            QCheck.Test.fail_reportf
              "interval drift for %s under %s: (%g, %g) vs (%g, %g)" qid
              (Config.fingerprint config) lo1 hi1 lo2 hi2)
        probe_configs)
    probe_queries;
  true

let prop_bounds_roundtrip =
  QCheck.Test.make ~name:"bound store round-trip preserves cost intervals"
    ~count:40
    QCheck.(int_bound ((1 lsl 12) - 1))
    roundtrip_preserves_intervals

let test_bounds_fingerprint_mismatch () =
  let cat = Fixtures.small_catalog () in
  let w = O.Whatif.create cat in
  ignore
    (O.Whatif.plan_select w Config.empty ~qid:"m1"
       (Fixtures.parse_select "SELECT r.a FROM r WHERE r.a = 5"));
  with_temp_file @@ fun file ->
  (match O.Whatif.save_bounds w ~file with
  | Ok n -> Alcotest.(check bool) "saved records" true (n > 0)
  | Error msg -> Alcotest.fail ("save failed: " ^ msg));
  (* other statistics, other fingerprint: the file must be refused *)
  let other = O.Whatif.create (W.Substrate.catalog ~sf:0.1 ()) in
  match O.Whatif.load_bounds other ~file with
  | Ok _ -> Alcotest.fail "mismatched catalog fingerprint was accepted"
  | Error _ ->
    Alcotest.(check int) "store untouched on refusal" 0
      (O.Whatif.bounds_size other)

(* --- concurrent view costing --------------------------------------------- *)

(* Environments are plain values and the catalog is immutable after
   [create], so domains may cost view-bearing configurations against a
   fresh catalog with no setup on the main domain first. *)
let test_concurrent_view_costing () =
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14 ] in
  let inst =
    T.Instrument.optimal_configuration
      (W.Tpch.catalog ~scale:0.02 ())
      ~base:Config.empty ~views:true w
  in
  let views = Config.views inst.optimal in
  Alcotest.(check bool) "optimal configuration holds views" true (views <> []);
  let selects =
    List.filter_map
      (fun (e : Query.entry) ->
        match e.stmt with Query.Select q -> Some q | Query.Dml _ -> None)
      w
  in
  let plans cat = List.map (O.Optimizer.optimize cat inst.optimal) selects in
  let costs ps = List.map (fun (p : O.Plan.t) -> p.cost) ps in
  let sequential = plans (W.Tpch.catalog ~scale:0.02 ()) in
  Alcotest.(check bool)
    "some plan reads a view" true
    (List.exists (fun p -> List.exists (O.Plan.uses_view p) views) sequential);
  let shared = W.Tpch.catalog ~scale:0.02 () in
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> costs (plans shared)))
  in
  List.iteri
    (fun i d ->
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "domain %d costs = sequential costs" i)
        (costs sequential) (Domain.join d))
    domains

(* --- determinism at scale ----------------------------------------------- *)

let require_domains n =
  let have = Domain.recommended_domain_count () in
  if have < n then
    Alcotest.skip ()

let test_determinism_substrate () =
  (* jobs=1 vs jobs=max on the 104-statement generated pool, with a
     finite what-if budget so the frugal spend counters are live too; a
     1- or 2-core host cannot exercise the contended path this exists
     to check, so skip visibly rather than pretend *)
  require_domains 4;
  let cat = W.Substrate.catalog ~sf:1.0 () in
  let w = W.Substrate.pool () in
  let budget = Config.total_bytes cat Config.empty *. 1.3 in
  let jobs_max = Int.min 8 (Domain.recommended_domain_count ()) in
  let run jobs =
    let obs = Obs.Recorder.create () in
    let opts =
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
           ~space_budget:budget ())
        with
        max_iterations = 25;
        jobs;
        whatif_budget = Some 200;
      }
    in
    let r = T.Tuner.tune ~obs cat w opts in
    (r, Obs.Recorder.snapshot obs)
  in
  let r1, m1 = run 1 and rn, mn = run jobs_max in
  let chk name b = Alcotest.(check bool) ("substrate: " ^ name) true b in
  let open T.Tuner in
  chk "recommended fingerprint"
    (Config.fingerprint r1.recommended = Config.fingerprint rn.recommended);
  chk "recommended cost" (r1.recommended_cost = rn.recommended_cost);
  chk "frontier" (r1.frontier = rn.frontier);
  chk "per-query costs" (r1.per_query = rn.per_query);
  let open Obs.Metrics in
  chk "what-if calls" (m1.what_if_calls = mn.what_if_calls);
  chk "cache hits" (m1.cache_hits = mn.cache_hits);
  chk "configurations evaluated"
    (m1.configurations_evaluated = mn.configurations_evaluated);
  (* the frugal spend counters live in the named-counter table; strip
     the pool.* utilization entries, which legitimately vary with the
     worker count, and require everything else identical *)
  let work m =
    List.filter
      (fun (name, _) ->
        not (String.length name >= 5 && String.sub name 0 5 = "pool."))
      m.named_counters
  in
  Alcotest.(check (list (pair string int)))
    "substrate: named counters (incl. frugal spend)" (work m1) (work mn)

let suite =
  [
    Alcotest.test_case "substrate: pool shape and unique qids" `Quick
      test_substrate_pool_shape;
    Alcotest.test_case "substrate: pool deterministic in seed" `Quick
      test_substrate_pool_deterministic;
    Alcotest.test_case "substrate: 1000-statement pool" `Quick
      test_substrate_pool_scales;
    Alcotest.test_case "substrate: invalid sizes rejected" `Quick
      test_substrate_pool_invalid;
    Alcotest.test_case "substrate: SF-10 stats scale from SF-1" `Quick
      test_substrate_catalog_sf;
    Alcotest.test_case "pool: oversubscription warning counters" `Quick
      test_pool_oversubscription_counters;
    Alcotest.test_case "pool: no warning within hardware" `Quick
      test_pool_within_hw_no_warning;
    QCheck_alcotest.to_alcotest prop_bounds_roundtrip;
    Alcotest.test_case "whatif: mismatched catalog refused" `Quick
      test_bounds_fingerprint_mismatch;
    Alcotest.test_case "views: concurrent costing on a fresh catalog" `Quick
      test_concurrent_view_costing;
    Alcotest.test_case "determinism: substrate pool, jobs=1 vs jobs=max"
      `Slow test_determinism_substrate;
  ]
