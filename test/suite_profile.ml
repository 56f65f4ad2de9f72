(** Tests for the profiling layer: histogram buckets and quantile
    units, self vs total span time, a qcheck property that span trees
    stay well-parenthesized per domain, and well-formedness of the
    Chrome trace-event export under a parallel tune. *)

module Config = Relax_physical.Config
module T = Relax_tuner
module W = Relax_workloads
module Obs = Relax_obs
module J = Relax_obs.Json
module H = Relax_obs.Histogram

(* --- histogram buckets and quantiles --------------------------------- *)

let test_histogram_buckets () =
  Alcotest.(check bool) "first edge is 1 µs" true (Float.abs (H.bound 0 -. 1e-6) < 1e-12);
  Alcotest.(check int) "zero lands in bucket 0" 0 (H.bucket_of 0.0);
  Alcotest.(check int) "sub-µs lands in bucket 0" 0 (H.bucket_of 1e-9);
  Alcotest.(check int) "huge values clamp to the last bucket" 127 (H.bucket_of 1e9);
  (* quarter-octave layout: just under an edge stays in that bucket,
     just over it moves to the next *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "below edge %d" i)
        i
        (H.bucket_of (H.bound i *. 0.999));
      Alcotest.(check int)
        (Printf.sprintf "above edge %d" i)
        (i + 1)
        (H.bucket_of (H.bound i *. 1.01)))
    [ 1; 7; 40; 100 ];
  (* each bucket is one quarter octave wide: the reported edge is within
     2^0.25 of any value in the bucket *)
  List.iter
    (fun v ->
      let edge = H.bound (H.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "edge covers %g" v)
        true
        (edge >= v *. 0.999 && edge < v *. 1.19))
    [ 2e-6; 1.23e-4; 0.0123; 0.9; 17.0 ]

let test_histogram_quantiles () =
  let h = H.create () in
  for _ = 1 to 90 do
    H.add h 0.001
  done;
  for _ = 1 to 10 do
    H.add h 1.0
  done;
  let s = H.snap h in
  Alcotest.(check int) "count" 100 (H.count s);
  Alcotest.(check bool) "total" true (Float.abs (H.total_s s -. 10.09) < 1e-9);
  (* quantiles report the upper edge of the rank's bucket, so they are
     exact to within one quarter-octave bucket width *)
  let within_bucket q v = q >= v && q <= v *. 1.19 in
  Alcotest.(check bool) "p50 is ~1 ms" true (within_bucket (H.quantile s 0.50) 0.001);
  Alcotest.(check bool) "p90 is ~1 ms" true (within_bucket (H.quantile s 0.90) 0.001);
  (* the top bucket's edge exceeds the observed maximum, so the cap
     makes p99 exactly the max *)
  Alcotest.(check bool) "p99 is the 1 s max" true (H.quantile s 0.99 = 1.0);
  Alcotest.(check bool) "p100 is the max" true (H.quantile s 1.0 = 1.0);
  let sm = H.summary s in
  Alcotest.(check bool) "summary agrees" true
    (sm.h_count = 100 && within_bucket sm.p50_s 0.001 && sm.p99_s = 1.0);
  Alcotest.(check bool) "empty quantile is 0" true
    (H.quantile (H.snap (H.create ())) 0.99 = 0.0)

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  H.add a 0.002;
  H.add a 0.002;
  H.add b 0.5;
  let m = H.merge (H.snap a) (H.snap b) in
  Alcotest.(check int) "merged count" 3 (H.count m);
  Alcotest.(check bool) "merged total" true
    (Float.abs (H.total_s m -. 0.504) < 1e-9);
  Alcotest.(check bool) "merged max" true (H.max_s m = 0.5);
  let p50 = H.quantile m 0.50 in
  Alcotest.(check bool) "merged p50" true (p50 >= 0.002 && p50 <= 0.002 *. 1.19)

let test_histogram_json_units () =
  let h = H.create () in
  for _ = 1 to 10 do
    H.add h 0.002
  done;
  let j = H.to_json (H.snap h) in
  let num field =
    match Option.bind (J.member field j) J.to_float with
    | Some f -> f
    | None -> Alcotest.failf "missing %s in %s" field (J.to_string j)
  in
  (* the _ms suffixes really are milliseconds *)
  Alcotest.(check bool) "count" true (num "count" = 10.0);
  Alcotest.(check bool) "p50_ms" true (Float.abs (num "p50_ms" -. 2.0) < 1e-9);
  Alcotest.(check bool) "max_ms" true (Float.abs (num "max_ms" -. 2.0) < 1e-9);
  Alcotest.(check bool) "total_s" true (Float.abs (num "total_s" -. 0.02) < 1e-9);
  match J.of_string (J.to_string j) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "histogram json unparseable: %s" msg

(* --- self vs total span time ----------------------------------------- *)

let test_span_self_vs_total () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_span r "outer" (fun () ->
      Unix.sleepf 0.005;
      Obs.Recorder.with_span r "inner" (fun () -> Unix.sleepf 0.02));
  let stat name =
    List.find
      (fun (s : Obs.Metrics.span_stat) -> s.span_name = name)
      (Obs.Recorder.span_stats r)
  in
  let outer = stat "outer" and inner = stat "inner" in
  Alcotest.(check bool) "self <= total" true (outer.self_s <= outer.total_s);
  Alcotest.(check bool)
    "leaf self = leaf total" true
    (Float.abs (inner.self_s -. inner.total_s) < 1e-9);
  (* outer's exclusive time excludes the 20 ms spent inside inner *)
  Alcotest.(check bool)
    "inner time excluded from outer self" true
    (outer.total_s -. outer.self_s >= 0.015);
  Alcotest.(check bool)
    "self covers outer's own work" true
    (outer.self_s >= 0.004);
  Alcotest.(check bool)
    "times reconcile" true
    (Float.abs (outer.total_s -. (outer.self_s +. inner.total_s)) < 1e-3)

let test_metrics_pp_quantiles () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_span r "work.step" (fun () -> Unix.sleepf 0.002);
  Obs.Recorder.with_span r "work.step" (fun () -> ());
  let out = Format.asprintf "%a" Obs.Metrics.pp (Obs.Recorder.snapshot r) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "pp mentions %S" needle)
        true
        (Astring_contains.contains out needle))
    [ "work.step"; "self"; "latency"; "p50" ]

(* --- qcheck: span trees are well-parenthesized per domain ------------- *)

type prog = Node of int * prog list

let rec prog_size (Node (_, kids)) =
  1 + List.fold_left (fun acc k -> acc + prog_size k) 0 kids

let rec prog_print (Node (i, kids)) =
  Printf.sprintf "s%d(%s)" i (String.concat "," (List.map prog_print kids))

let gen_prog =
  QCheck.Gen.(
    sized_size (int_range 1 12)
      (fix (fun self n ->
           let* name = int_bound 4 in
           if n <= 1 then return (Node (name, []))
           else
             let* k = int_range 0 (Int.min 3 (n - 1)) in
             let width = Int.max 1 k in
             let* kids =
               flatten_l (List.init k (fun _ -> self ((n - 1) / width)))
             in
             return (Node (name, kids)))))

let rec run_prog r (Node (i, kids)) =
  Obs.Recorder.with_span r (Printf.sprintf "s%d" i) (fun () ->
      List.iter (run_prog r) kids)

let check_well_parenthesized spans =
  let eps = 1e-4 in
  let by_sid = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span_tree.span) -> Hashtbl.replace by_sid s.sid s)
    spans;
  let last_sid = ref min_int in
  List.for_all
    (fun (s : Obs.Span_tree.span) ->
      let ordered = s.sid > !last_sid in
      last_sid := s.sid;
      ordered && s.dur_s >= 0.0
      &&
      match s.parent with
      | None -> s.depth = 1
      | Some p -> (
        match Hashtbl.find_opt by_sid p with
        | None -> false
        | Some parent ->
          parent.domain = s.domain
          && s.depth = parent.depth + 1
          && s.t0 >= parent.t0 -. eps
          && s.t0 +. s.dur_s <= parent.t0 +. parent.dur_s +. eps))
    spans

let prop_span_trees_well_parenthesized =
  QCheck.Test.make ~name:"span trees well-parenthesized per domain" ~count:30
    (QCheck.make
       ~print:(fun (a, b) -> prog_print a ^ " || " ^ prog_print b)
       QCheck.Gen.(pair gen_prog gen_prog))
    (fun (p1, p2) ->
      let r = Obs.Recorder.create ~profile:true () in
      (* two domains open and close spans concurrently on one recorder;
         each domain's own tree must still nest cleanly *)
      let d = Domain.spawn (fun () -> run_prog r p2) in
      run_prog r p1;
      Domain.join d;
      let spans = Obs.Recorder.profile_spans r in
      List.length spans = prog_size p1 + prog_size p2
      && check_well_parenthesized spans)

(* --- chrome trace export under a parallel tune ------------------------ *)

let profiled_tune =
  lazy
    (let cat = W.Tpch.catalog ~scale:0.01 () in
     let w = W.Tpch.workload_subset [ 1; 6; 14 ] in
     let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
     let budget = Config.total_bytes cat inst.optimal *. 0.5 in
     let opts =
       {
         (T.Tuner.default_options ~space_budget:budget ()) with
         max_iterations = 40;
         jobs = 4;
       }
     in
     let obs = Obs.Recorder.create ~profile:true () in
     let r = T.Tuner.tune ~obs cat w opts in
     (r, obs))

let chrome_events () =
  let _, obs = Lazy.force profiled_tune in
  (* round-trip through the printer so we validate what tune/bench
     actually write to disk *)
  let j =
    match J.of_string (J.to_string (Obs.Chrome.of_recorder obs)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "chrome trace unparseable: %s" msg
  in
  match J.member "traceEvents" j with
  | Some (J.List events) -> events
  | _ -> Alcotest.failf "no traceEvents list: %s" (J.to_string j)

let str field e = Option.bind (J.member field e) J.to_string_opt
let num field e = Option.bind (J.member field e) J.to_float

let test_chrome_well_formed () =
  let events = chrome_events () in
  Alcotest.(check bool) "trace non-empty" true (events <> []);
  List.iter
    (fun e ->
      (match str "ph" e with
      | Some ("X" | "M" | "C") -> ()
      | _ -> Alcotest.failf "bad phase: %s" (J.to_string e));
      Alcotest.(check (option int))
        "pid" (Some 1)
        (Option.bind (J.member "pid" e) J.to_int);
      if str "ph" e = Some "X" then begin
        Alcotest.(check bool) "X has a name" true (str "name" e <> None);
        Alcotest.(check bool) "X has a tid" true
          (Option.bind (J.member "tid" e) J.to_int <> None);
        match (num "ts" e, num "dur" e) with
        | Some ts, Some dur ->
          Alcotest.(check bool) "ts, dur non-negative" true
            (ts >= 0.0 && dur >= 0.0)
        | _ -> Alcotest.failf "X without ts/dur: %s" (J.to_string e)
      end)
    events

let test_chrome_ts_monotone () =
  let events = chrome_events () in
  let last = ref neg_infinity in
  List.iter
    (fun e ->
      match num "ts" e with
      | None -> () (* metadata events carry no timestamp *)
      | Some ts ->
        Alcotest.(check bool) "ts non-decreasing" true (ts >= !last);
        last := ts)
    events

let test_chrome_thread_tracks () =
  let events = chrome_events () in
  let span_tids =
    List.filter_map
      (fun e ->
        if str "ph" e = Some "X" then
          Option.bind (J.member "tid" e) J.to_int
        else None)
      events
    |> List.sort_uniq compare
  in
  (* at jobs = 4 the worker domains cost plans on their own tracks *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 2 thread tracks (got %d)"
       (List.length span_tids))
    true
    (List.length span_tids >= 2);
  let named_tids =
    List.filter_map
      (fun e ->
        if str "ph" e = Some "M" && str "name" e = Some "thread_name" then
          Option.bind (J.member "tid" e) J.to_int
        else None)
      events
  in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "tid %d has thread_name metadata" tid)
        true (List.mem tid named_tids))
    span_tids;
  Alcotest.(check bool) "process named" true
    (List.exists
       (fun e -> str "ph" e = Some "M" && str "name" e = Some "process_name")
       events)

let test_chrome_counter_tracks () =
  let events = chrome_events () in
  let counters =
    List.filter_map
      (fun e -> if str "ph" e = Some "C" then str "name" e else None)
      events
    |> List.sort_uniq compare
  in
  List.iter
    (fun track ->
      Alcotest.(check bool)
        (Printf.sprintf "counter track %s present" track)
        true (List.mem track counters))
    [
      "whatif.calls";
      "whatif.cache_hits";
      "latency.whatif.optimize_us";
      "gc.heap_words";
      "search.pool";
      "pool.queue_depth";
    ]

let suite =
  [
    Alcotest.test_case "histogram: bucket layout" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram: quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram: json units" `Quick test_histogram_json_units;
    Alcotest.test_case "spans: self vs total" `Quick test_span_self_vs_total;
    Alcotest.test_case "metrics: pp prints quantiles" `Quick
      test_metrics_pp_quantiles;
    QCheck_alcotest.to_alcotest prop_span_trees_well_parenthesized;
    Alcotest.test_case "chrome: events well-formed" `Slow
      test_chrome_well_formed;
    Alcotest.test_case "chrome: timestamps monotone" `Slow
      test_chrome_ts_monotone;
    Alcotest.test_case "chrome: >= 2 thread tracks at jobs=4" `Slow
      test_chrome_thread_tracks;
    Alcotest.test_case "chrome: counter tracks" `Slow
      test_chrome_counter_tracks;
  ]
