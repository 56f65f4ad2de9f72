(** Tests for the observability layer: JSON round-trips, span timing,
    counter aggregation through the ambient recorder, the JSONL trace
    schema, and agreement between the structured metrics and the
    optimizer's own legacy statistics. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer
module T = Relax_tuner
module Obs = Relax_obs

let cat = lazy (Fixtures.small_catalog ())

let workload_of_strings l : Query.workload =
  List.mapi
    (fun i s ->
      Query.entry (Printf.sprintf "q%d" (i + 1)) (Relax_sql.Parser.statement s))
    l

let small_workload () =
  workload_of_strings
    [
      "SELECT r.a, r.b FROM r WHERE r.a = 5";
      "SELECT r.d, r.e FROM r WHERE r.a < 10 AND r.b < 10 ORDER BY r.d";
      "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5";
      "SELECT s.y, s.z FROM s WHERE s.x < 3";
    ]

(* --- JSON ----------------------------------------------------------- *)

let roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Float 1.5;
      Float (-0.25);
      String "plain";
      String "esc \"q\" \\ \n \t ctrl \001 end";
      List [ Int 1; String "two"; Null ];
      Obj
        [
          ("a", Int 1);
          ("nested", Obj [ ("l", List [ Bool false; Float 2.5 ]) ]);
          ("empty_obj", Obj []);
          ("empty_list", List []);
        ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Obs.Json.to_string v) true
        (roundtrip v = v))
    values

let test_json_nonfinite_and_errors () =
  let open Obs.Json in
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string)
    "inf is null" "null"
    (to_string (Float Float.infinity));
  List.iter
    (fun s ->
      match of_string s with
      | Ok _ -> Alcotest.failf "parsed garbage: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_unicode_escape () =
  match Obs.Json.of_string "\"a\\u00e9b\"" with
  | Ok (Obs.Json.String s) ->
    Alcotest.(check string) "utf8 decode" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "expected a string"

(* --- spans ----------------------------------------------------------- *)

let test_span_nesting () =
  let r = Obs.Recorder.create () in
  let v =
    Obs.Recorder.with_span r "outer" (fun () ->
        Obs.Recorder.with_span r "inner" (fun () -> ());
        Obs.Recorder.with_span r "inner" (fun () -> 7))
  in
  Alcotest.(check int) "value threaded" 7 v;
  let stat name =
    match
      List.find_opt
        (fun (s : Obs.Metrics.span_stat) -> s.span_name = name)
        (Obs.Recorder.span_stats r)
    with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" name
  in
  let outer = stat "outer" and inner = stat "inner" in
  Alcotest.(check int) "outer calls" 1 outer.calls;
  Alcotest.(check int) "inner calls" 2 inner.calls;
  Alcotest.(check int) "outer depth" 1 outer.max_depth;
  Alcotest.(check int) "inner depth" 2 inner.max_depth;
  Alcotest.(check bool) "inner total non-negative" true (inner.total_s >= 0.0);
  Alcotest.(check bool)
    "outer total dominates inner" true
    (outer.total_s >= inner.total_s)

let test_span_exception_safe () =
  let r = Obs.Recorder.create () in
  (try
     Obs.Recorder.with_span r "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  (* the span closed despite the exception: a second span nests at depth 1 *)
  Obs.Recorder.with_span r "after" (fun () -> ());
  let after =
    List.find
      (fun (s : Obs.Metrics.span_stat) -> s.span_name = "after")
      (Obs.Recorder.span_stats r)
  in
  Alcotest.(check int) "depth reset after raise" 1 after.max_depth

(* --- probes and ambient recorder ------------------------------------ *)

let test_probe_ambient () =
  Alcotest.(check bool) "inactive outside" false (Obs.Probe.active ());
  (* probes outside any ambient recorder are no-ops, not crashes *)
  Obs.Probe.count "ignored";
  Obs.Probe.what_if_call ~qid:"q0";
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_ambient r (fun () ->
      Alcotest.(check bool) "active inside" true (Obs.Probe.active ());
      Obs.Probe.count "x";
      Obs.Probe.count "x";
      Obs.Probe.count_n "y" 5;
      Obs.Probe.transform_generated ~kind:"merge_indexes";
      Obs.Probe.transform_generated ~kind:"merge_indexes";
      Obs.Probe.transform_applied ~kind:"merge_indexes";
      Obs.Probe.what_if_call ~qid:"q1";
      Obs.Probe.cache_hit ~qid:"q1";
      Obs.Probe.pool_size 3;
      Obs.Probe.pool_size 5);
  Alcotest.(check bool) "inactive again" false (Obs.Probe.active ());
  let m = Obs.Recorder.snapshot r in
  Alcotest.(check (list (pair string int)))
    "counters" [ ("x", 2); ("y", 5) ] m.named_counters;
  Alcotest.(check (list (pair string int)))
    "generated" [ ("merge_indexes", 2) ] m.transforms_generated;
  Alcotest.(check (list (pair string int)))
    "applied" [ ("merge_indexes", 1) ] m.transforms_applied;
  Alcotest.(check int) "what-if calls" 1 m.what_if_calls;
  Alcotest.(check int) "cache hits" 1 m.cache_hits;
  Alcotest.(check (list int)) "pool oldest-first" [ 3; 5 ] m.pool_trace

let test_metrics_merge () =
  let r1 = Obs.Recorder.create () and r2 = Obs.Recorder.create () in
  Obs.Recorder.with_ambient r1 (fun () ->
      Obs.Probe.count "x";
      Obs.Probe.what_if_call ~qid:"a");
  Obs.Recorder.with_ambient r2 (fun () ->
      Obs.Probe.count_n "x" 2;
      Obs.Probe.count "z";
      Obs.Probe.what_if_call ~qid:"b");
  let m =
    Obs.Metrics.merge_all
      [ Obs.Recorder.snapshot r1; Obs.Recorder.snapshot r2 ]
  in
  Alcotest.(check int) "what-if summed" 2 m.what_if_calls;
  Alcotest.(check (list (pair string int)))
    "counters merged" [ ("x", 3); ("z", 1) ] m.named_counters

(* --- trace sinks ----------------------------------------------------- *)

let test_memory_sink_and_lazy_emit () =
  let sink, lines = Obs.Trace.memory () in
  let r = Obs.Recorder.create ~sink () in
  Obs.Recorder.emit r (fun () -> Obs.Json.Obj [ ("n", Obs.Json.Int 1) ]);
  Obs.Recorder.emit r (fun () -> Obs.Json.Obj [ ("n", Obs.Json.Int 2) ]);
  Alcotest.(check (list string))
    "lines in order"
    [ "{\"n\":1}"; "{\"n\":2}" ]
    (lines ());
  (* without a sink the thunk must never be forced *)
  let bare = Obs.Recorder.create () in
  Obs.Recorder.emit bare (fun () -> Alcotest.fail "thunk forced without sink")

let test_file_sink () =
  let path = Filename.temp_file "relax_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Trace.file path in
      Obs.Trace.emit sink (Obs.Json.Obj [ ("a", Obs.Json.Int 1) ]);
      Obs.Trace.emit sink (Obs.Json.Obj [ ("a", Obs.Json.Int 2) ]);
      Obs.Trace.close sink;
      Obs.Trace.close sink;
      (* idempotent *)
      let content = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string)
        "file contents" "{\"a\":1}\n{\"a\":2}\n" content)

(* --- end-to-end: tuning under a recorder ----------------------------- *)

let run_traced_tune () =
  let cat = Lazy.force cat in
  let w = small_workload () in
  (* a budget at half the optimal size forces a real relaxation search *)
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let budget = Config.total_bytes cat inst.optimal *. 0.5 in
  let opts =
    {
      (T.Tuner.default_options ~space_budget:budget ()) with
      max_iterations = 60;
    }
  in
  let sink, lines = Obs.Trace.memory () in
  let obs = Obs.Recorder.create ~sink () in
  let r = T.Tuner.tune ~obs cat w opts in
  (r, lines ())

let traced = lazy (run_traced_tune ())

let parsed_events () =
  let _, lines = Lazy.force traced in
  List.map
    (fun line ->
      match Obs.Json.of_string line with
      | Ok v -> v
      | Error msg -> Alcotest.failf "unparseable trace line (%s): %s" msg line)
    lines

let events_of_type ty events =
  List.filter
    (fun e -> Obs.Json.(member "event" e) = Some (Obs.Json.String ty))
    events

let test_trace_lines_parse () =
  let _, lines = Lazy.force traced in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let events = parsed_events () in
  List.iter
    (fun e ->
      match Obs.Json.member "event" e with
      | Some (Obs.Json.String ("whatif" | "iteration")) -> ()
      | _ -> Alcotest.failf "unknown event: %s" (Obs.Json.to_string e))
    events

let test_trace_iteration_schema () =
  let events = events_of_type "iteration" (parsed_events ()) in
  Alcotest.(check bool) "search iterated" true (events <> []);
  let required =
    [
      "iteration"; "parent"; "transform"; "kind"; "penalty"; "delta_cost";
      "delta_space"; "predicted_cost"; "predicted_size"; "outcome"; "node";
      "actual_cost"; "actual_size"; "bound_drift"; "pool"; "best_cost";
    ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun field ->
          if Obs.Json.member field e = None then
            Alcotest.failf "iteration event missing %s: %s" field
              (Obs.Json.to_string e))
        required;
      (* evaluated iterations carry realized numbers and a finite drift *)
      match Obs.Json.member "outcome" e with
      | Some (Obs.Json.String "evaluated") ->
        let num field =
          match Option.bind (Obs.Json.member field e) Obs.Json.to_float with
          | Some f -> f
          | None ->
            Alcotest.failf "evaluated event: %s not numeric: %s" field
              (Obs.Json.to_string e)
        in
        let drift = num "bound_drift" in
        Alcotest.(check bool)
          "drift finite and positive" true
          (Float.is_finite drift && drift > 0.0);
        ignore (num "actual_cost");
        ignore (num "actual_size")
      | Some (Obs.Json.String ("shortcut" | "duplicate" | "inapplicable")) ->
        Alcotest.(check bool)
          "unevaluated events carry no node" true
          (Obs.Json.member "node" e = Some Obs.Json.Null)
      | _ -> Alcotest.fail "unknown iteration outcome")
    events

let test_trace_counts_match_metrics () =
  let r, _ = Lazy.force traced in
  let events = parsed_events () in
  Alcotest.(check int)
    "whatif events = metrics what-if calls" r.metrics.what_if_calls
    (List.length (events_of_type "whatif" events));
  Alcotest.(check int)
    "iteration events = metrics iterations" r.metrics.iterations
    (List.length (events_of_type "iteration" events));
  Alcotest.(check int)
    "metrics iterations = result iterations" r.iterations
    r.metrics.iterations

let test_metrics_match_legacy_stats () =
  (* the structured metrics must agree with the what-if layer's own
     counters, which Search.outcome still carries *)
  let cat = Lazy.force cat in
  let w = small_workload () in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let budget = Config.total_bytes cat inst.optimal *. 0.5 in
  let opts =
    {
      (T.Tuner.default_options ~space_budget:budget ()) with
      max_iterations = 60;
    }
  in
  let obs = Obs.Recorder.create () in
  let outcome = T.Search.run ~obs cat ~workload:w ~initial:inst.optimal opts in
  let m = Obs.Recorder.snapshot obs in
  Alcotest.(check int)
    "what-if calls agree" outcome.optimizer_calls m.what_if_calls;
  Alcotest.(check int) "cache hits agree" outcome.cache_hits m.cache_hits;
  Alcotest.(check int) "iterations agree" outcome.iterations m.iterations;
  Alcotest.(check int)
    "pool trace covers every iteration" outcome.iterations
    (List.length m.pool_trace)

let test_tuner_metrics_populated () =
  let r, _ = Lazy.force traced in
  let m = r.metrics in
  Alcotest.(check bool) "what-if calls recorded" true (m.what_if_calls > 0);
  Alcotest.(check bool)
    "transformations generated" true
    (m.transforms_generated <> []);
  Alcotest.(check bool)
    "tuner spans recorded" true
    (List.exists
       (fun (s : Obs.Metrics.span_stat) -> s.span_name = "tuner.tune")
       m.spans
    && List.exists
         (fun (s : Obs.Metrics.span_stat) -> s.span_name = "tuner.search")
         m.spans);
  (* metrics snapshots embed into the bench JSON output losslessly enough
     to reparse *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Metrics.to_json m)) with
  | Ok j ->
    Alcotest.(check (option int))
      "json what_if_calls" (Some m.what_if_calls)
      (Option.bind (Obs.Json.member "what_if_calls" j) Obs.Json.to_int)
  | Error msg -> Alcotest.failf "metrics json unparseable: %s" msg

let suite =
  [
    Alcotest.test_case "json: round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: non-finite and errors" `Quick
      test_json_nonfinite_and_errors;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "spans: nesting and totals" `Quick test_span_nesting;
    Alcotest.test_case "spans: exception safe" `Quick test_span_exception_safe;
    Alcotest.test_case "probes: ambient aggregation" `Quick test_probe_ambient;
    Alcotest.test_case "metrics: merge" `Quick test_metrics_merge;
    Alcotest.test_case "trace: memory sink, lazy emit" `Quick
      test_memory_sink_and_lazy_emit;
    Alcotest.test_case "trace: file sink" `Quick test_file_sink;
    Alcotest.test_case "trace: lines parse" `Quick test_trace_lines_parse;
    Alcotest.test_case "trace: iteration schema" `Quick
      test_trace_iteration_schema;
    Alcotest.test_case "trace: counts match metrics" `Quick
      test_trace_counts_match_metrics;
    Alcotest.test_case "metrics agree with what-if stats" `Quick
      test_metrics_match_legacy_stats;
    Alcotest.test_case "tuner result carries metrics" `Quick
      test_tuner_metrics_populated;
  ]
