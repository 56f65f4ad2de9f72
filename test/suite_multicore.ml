(** Multi-core tests that only mean something on a big substrate: the
    jobs=1 vs jobs=max determinism guarantee on the generated 104-statement
    pool, the substrate generator itself, the pool oversubscription
    warning counters, and concurrent view costing on a fresh catalog.

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
    Alcotest.test_case "views: concurrent costing on a fresh catalog" `Quick
      test_concurrent_view_costing;
    Alcotest.test_case "determinism: substrate pool, jobs=1 vs jobs=max"
      `Slow test_determinism_substrate;
  ]
