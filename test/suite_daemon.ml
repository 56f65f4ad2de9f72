(** Tests for the continuous tuning daemon and its supporting layers: the
    durable Config JSON codec (round-trip and fingerprint preservation,
    randomized), the decayed sliding window (monotone decay, rotation,
    capacity eviction), the JSONL stream codec and a fuzz of its line
    parser (truncated and byte-flipped TPC-H lines), the guardrail verdicts,
    warm-vs-cold re-tune economy, deterministic replay across [--jobs],
    guardrail auto-rollback with byte-identical restore, crash-safe state
    writes, per-qid what-if eviction, the frugal tier on an update
    workload, a spawned [relaxd] process signalled mid-stream (clean
    SIGTERM exit, well-formed JSONL), and a spawned [relaxd] refusing
    out-of-range flags (a negative what-if budget, an empty window, a
    re-tune every 0 statements). *)

module Query = Relax_sql.Query
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Config_json = Relax_physical.Config_json
module O = Relax_optimizer
module T = Relax_tuner
module C = Relax_check
module D = Relax_daemon
module W = Relax_workloads

let cat = lazy (Fixtures.small_catalog ())

(* --- Config JSON round-trip ----------------------------------------------- *)

let arb_config =
  let gen =
    QCheck.Gen.(
      let col_pool = [ "id"; "a"; "b"; "cc"; "d"; "e" ] in
      let arb_index =
        let* nk = int_range 1 4 in
        let* perm = shuffle_l col_pool in
        let keys = List.filteri (fun i _ -> i < nk) perm in
        let* ns = int_range 0 2 in
        let rest = List.filteri (fun i _ -> i >= nk) perm in
        let suffix = List.filteri (fun i _ -> i < ns) rest in
        return (Index.on "r" keys ~suffix)
      in
      let* n = int_range 0 4 in
      let* idxs = list_size (return n) arb_index in
      return (Config.of_indexes idxs))
  in
  QCheck.make ~print:Config.fingerprint gen

let prop_config_json_roundtrip =
  QCheck.Test.make ~name:"Config JSON round-trip: parse . print = id"
    ~count:300 arb_config (fun config ->
      let s = Config_json.to_string config in
      match Config_json.of_string s with
      | Error msg -> QCheck.Test.fail_reportf "does not parse back: %s" msg
      | Ok config' ->
        String.equal (Config.fingerprint config) (Config.fingerprint config')
        && String.equal s (Config_json.to_string config'))

let test_config_json_views () =
  let sq =
    Fixtures.parse_select
      "SELECT r.a, SUM(r.cc) FROM r, s WHERE r.sid = s.id AND r.b < 42 \
       GROUP BY r.a"
  in
  let v = View.make sq.Query.body in
  let config =
    Config.add_view
      (Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "cc" ] ])
      v ~rows:123.5
  in
  let s = Config_json.to_string config in
  match Config_json.of_string s with
  | Error msg -> Alcotest.failf "view config does not parse back: %s" msg
  | Ok config' ->
    Alcotest.(check string)
      "fingerprint preserved" (Config.fingerprint config)
      (Config.fingerprint config');
    Alcotest.(check string) "JSON stable" s (Config_json.to_string config');
    (match Config.views_with_rows config' with
    | [ (_, rows) ] -> Fixtures.check_float "view rows preserved" 123.5 rows
    | l -> Alcotest.failf "expected 1 view, got %d" (List.length l))

let test_config_json_rejects_garbage () =
  let bad s =
    match Config_json.of_string s with
    | Ok _ -> Alcotest.failf "parsed garbage: %s" s
    | Error _ -> ()
  in
  bad "";
  bad "[]";
  bad {|{"version":99,"indexes":[],"views":[]}|};
  bad {|{"version":1,"indexes":[{"keys":[]}],"views":[]}|};
  bad {|{"version":1,"indexes":[{"keys":[["r"]],"suffix":[],"clustered":false}],"views":[]}|}

(* --- the sliding window --------------------------------------------------- *)

let select_a = "SELECT r.a FROM r WHERE r.b < 10"
let select_a' = "SELECT r.a FROM r WHERE r.b < 99"
let select_d = "SELECT r.d FROM r WHERE r.cc < 500"

let entry ?(weight = 1.0) qid sql =
  { Query.qid; weight; stmt = Relax_sql.Parser.statement sql }

let test_window_basics () =
  let w = D.Window.create ~decay:0.9 () in
  D.Window.add w (entry "q1" select_a);
  D.Window.add w (entry "q2" select_d);
  (* same template as q1 (constants differ): reinforces, no new template *)
  D.Window.add w (entry "q3" select_a');
  Alcotest.(check int) "two templates" 2 (D.Window.size w);
  Alcotest.(check int) "three arrivals" 3 (D.Window.statements_seen w);
  let wl = D.Window.workload w in
  Alcotest.(check (list string))
    "stable daemon qids in creation order" [ "w000"; "w001" ]
    (List.map (fun (e : Query.entry) -> e.qid) wl);
  (* the reinforced template outweighs the single-arrival one *)
  match D.Window.weights w with
  | [ (_, wa); (_, wd) ] ->
    Alcotest.(check bool) "reinforced heavier" true (wa > wd)
  | l -> Alcotest.failf "expected 2 weights, got %d" (List.length l)

let prop_window_decay_monotone =
  QCheck.Test.make ~name:"window decay: weights monotone non-increasing"
    ~count:100
    QCheck.(pair (float_range 0.05 1.0) (int_range 1 30))
    (fun (decay, ticks) ->
      let w = D.Window.create ~decay () in
      D.Window.add w (entry "q1" select_a);
      D.Window.add w (entry "q2" select_d);
      let rec go prev k =
        if k = 0 then true
        else begin
          D.Window.tick w;
          let now = List.map snd (D.Window.weights w) in
          List.for_all2 (fun a b -> b <= a +. 1e-12) prev now
          && go now (k - 1)
        end
      in
      go (List.map snd (D.Window.weights w)) ticks)

let test_window_rotation () =
  let w = D.Window.create ~decay:0.5 ~min_weight:0.1 () in
  D.Window.add w (entry "q1" select_a);
  D.Window.add w (entry "q2" select_d);
  (* refresh case: q1's template arrives again with new constants *)
  D.Window.add w (entry "q3" select_a');
  let r = D.Window.rotate w in
  Alcotest.(check (list string)) "no drops yet" [] r.D.Window.dropped;
  Alcotest.(check (list string))
    "representative refreshed" [ "w000" ] r.D.Window.refreshed;
  Alcotest.(check bool)
    "refreshed qid queued for eviction" true
    (List.mem "w000" (D.Window.drain_evictions w));
  (* the workload now carries the latest constants *)
  let rep =
    List.find (fun (e : Query.entry) -> e.qid = "w000") (D.Window.workload w)
  in
  Alcotest.(check string)
    "refreshed representative" select_a'
    (Relax_sql.Pretty.statement_to_string rep.stmt);
  (* decay both templates under the floor, rotate: both dropped *)
  for _ = 1 to 8 do
    D.Window.tick w
  done;
  let r = D.Window.rotate w in
  Alcotest.(check (list string))
    "faded templates dropped" [ "w000"; "w001" ] r.D.Window.dropped;
  Alcotest.(check int) "window empty" 0 (D.Window.size w)

let test_window_capacity_eviction () =
  let w = D.Window.create ~capacity:2 ~decay:1.0 () in
  D.Window.add w (entry ~weight:5.0 "q1" select_a);
  D.Window.add w (entry ~weight:1.0 "q2" select_d);
  (* a third template evicts the lightest (q2's) *)
  D.Window.add w (entry ~weight:2.0 "q3" "SELECT r.e FROM r WHERE r.a < 7");
  Alcotest.(check int) "capacity held" 2 (D.Window.size w);
  Alcotest.(check bool)
    "lightest evicted and queued" true
    (List.mem "w001" (D.Window.drain_evictions w))

(* --- the stream codec ----------------------------------------------------- *)

(* an integer literal past [max_int]: once an escaping [Failure] *)
let oversized_int_line =
  {|{"sql":"SELECT onek.value FROM onek WHERE onek.unique2 < 99999999999999999999999"}|}

let test_stream_parse () =
  (match D.Stream.parse_line {|{"qid":"q","sql":"SELECT r.a FROM r","weight":2.5}|} with
  | Ok e ->
    Alcotest.(check string) "qid" "q" e.Query.qid;
    Fixtures.check_float "weight" 2.5 e.Query.weight
  | Error msg -> Alcotest.failf "good line rejected: %s" msg);
  (match D.Stream.parse_line {|{"sql":"SELECT r.a FROM r"}|} with
  | Ok e -> Fixtures.check_float "default weight" 1.0 e.Query.weight
  | Error msg -> Alcotest.failf "minimal line rejected: %s" msg);
  let bad l =
    match D.Stream.parse_line l with
    | Ok _ -> Alcotest.failf "parsed malformed line: %s" l
    | Error _ -> ()
  in
  bad "not json";
  bad {|{"weight":1.0}|};
  bad {|{"sql":42}|};
  bad {|{"sql":"SELEKT nonsense"}|};
  bad {|{"sql":"SELECT r.a FROM r","weight":-3}|};
  bad {|{"sql":"SELECT r.a FROM r","weight":1e400}|};
  bad {|{"sql":"SELECT r.a FROM r","weight":"x"}|};
  bad oversized_int_line

(* --- stream fuzzing: [parse_line] answers [Ok] or [Error], never raises -- *)

(* the TPC-H subset as stream lines, plus the oversized literal: no flip
   of a TPC-H line grows a 20-digit number, but the oversized line's
   truncations and flips keep one *)
let fuzz_lines =
  lazy
    (oversized_int_line
    :: List.map D.Stream.line_of_entry
         (W.Tpch.workload_subset [ 1; 3; 6; 10; 14 ]))

(* the exception [parse_line] let escape, if any *)
let parse_escape line =
  match D.Stream.parse_line line with
  | Ok _ | Error _ -> None
  | exception e -> Some (Printexc.to_string e)

let test_stream_parse_truncations () =
  List.iter
    (fun line ->
      for n = 0 to String.length line do
        let l = String.sub line 0 n in
        match parse_escape l with
        | None -> ()
        | Some e -> Alcotest.failf "parse_line raised %s on %S" e l
      done)
    (Lazy.force fuzz_lines)

let prop_stream_parse_flips =
  let gen =
    QCheck.Gen.(
      let* line = oneofl (Lazy.force fuzz_lines) in
      let n = String.length line in
      let* k = int_range 1 3 in
      let* flips = list_size (return k) (pair (int_bound (n - 1)) char) in
      let b = Bytes.of_string line in
      List.iter (fun (i, c) -> Bytes.set b i c) flips;
      return (Bytes.to_string b))
  in
  QCheck.Test.make ~name:"stream: parse never raises on flipped bytes"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun line ->
      match parse_escape line with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "parse_line raised %s" e)

let test_stream_roundtrip () =
  let e = entry ~weight:3.25 "q7" select_a in
  match D.Stream.parse_line (D.Stream.line_of_entry e) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok e' ->
    Alcotest.(check string) "qid" "q7" e'.Query.qid;
    Fixtures.check_float "weight" 3.25 e'.Query.weight;
    Alcotest.(check string)
      "statement" select_a
      (Relax_sql.Pretty.statement_to_string e'.Query.stmt)

(* --- the guardrail -------------------------------------------------------- *)

let workload_small () =
  [
    entry "q1" "SELECT r.a FROM r WHERE r.b < 10";
    entry "q2" "SELECT r.d, SUM(r.cc) FROM r WHERE r.a < 200 GROUP BY r.d";
  ]

let test_guardrail_verdicts () =
  let cat = Lazy.force cat in
  let workload = workload_small () in
  let config =
    Config.of_indexes [ Index.on "r" [ "b" ] ~suffix:[ "a" ] ]
  in
  let cost = T.Tuner.workload_cost cat config workload in
  let v =
    C.Guardrail.validate cat ~workload ~space_budget:infinity
      ~claimed_cost:cost config
  in
  Alcotest.(check bool) "sane proposal passes" true v.C.Guardrail.passed;
  (* a wildly wrong claimed cost must fail the independent recompute *)
  let v =
    C.Guardrail.validate cat ~workload ~space_budget:infinity
      ~claimed_cost:(cost /. 10.0) config
  in
  Alcotest.(check bool) "wrong claimed cost fails" false v.C.Guardrail.passed;
  (* a busted space budget must fail *)
  let v =
    C.Guardrail.validate cat ~workload ~space_budget:1.0 ~claimed_cost:cost
      config
  in
  Alcotest.(check bool) "space budget fails" false v.C.Guardrail.passed;
  Alcotest.(check bool) "reasons reported" true (v.C.Guardrail.reasons <> [])

let test_drift_predicate () =
  let open C.Guardrail in
  Alcotest.(check bool) "within margin" false
    (drift_exceeded ~margin:0.25 ~predicted:100.0 ~realized:120.0);
  Alcotest.(check bool) "beyond margin" true
    (drift_exceeded ~margin:0.25 ~predicted:100.0 ~realized:130.0);
  Alcotest.(check bool) "one-sided: cheaper never fires" false
    (drift_exceeded ~margin:0.25 ~predicted:100.0 ~realized:10.0);
  Fixtures.check_float "ratio" 1.3 (drift_ratio ~predicted:100.0 ~realized:130.0)

(* --- daemon cycles -------------------------------------------------------- *)

let stream_of_reps reps =
  (* [reps] repetitions of the two-template workload, constants varied so
     templates reinforce rather than duplicate *)
  List.concat_map
    (fun i ->
      [
        entry
          (Printf.sprintf "a%d" i)
          (Printf.sprintf "SELECT r.a FROM r WHERE r.b < %d" (10 + i));
        entry
          (Printf.sprintf "d%d" i)
          (Printf.sprintf
             "SELECT r.d, SUM(r.cc) FROM r WHERE r.a < %d GROUP BY r.d"
             (200 + i));
      ])
    (List.init reps Fun.id)

let daemon_opts ?(warm = true) ?(jobs = 1) ?inject () =
  {
    (D.Daemon.default_options ~space_budget:infinity ()) with
    mode = T.Tuner.Indexes_only;
    retune_every = 4;
    min_statements = 4;
    rotate_every = 0;
    max_iterations = 60;
    jobs;
    warm;
    inject_drift = inject;
  }

let replay opts stream =
  let d = D.Daemon.create (Lazy.force cat) opts in
  List.iter (fun e -> ignore (D.Daemon.ingest d e)) stream;
  ignore (D.Daemon.finalize d);
  d

let test_daemon_warm_fewer_calls () =
  let stream = stream_of_reps 6 in
  let warm = replay (daemon_opts ~warm:true ()) stream in
  let cold = replay (daemon_opts ~warm:false ()) stream in
  let calls d =
    List.map
      (fun (r : D.Daemon.retune) -> r.what_if_calls)
      (D.Daemon.history d)
  in
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check bool) "several retunes ran" true (D.Daemon.retunes warm >= 3);
  Alcotest.(check string)
    "warm and cold converge to the same deployment"
    (Config.fingerprint (D.Daemon.deployed cold))
    (Config.fingerprint (D.Daemon.deployed warm));
  Alcotest.(check bool)
    (Printf.sprintf "warm re-tunes spend fewer what-if calls (%d < %d)"
       (sum (calls warm)) (sum (calls cold)))
    true
    (sum (calls warm) < sum (calls cold));
  (* after the first deploy the warm path answers from cache *)
  match calls warm with
  | first :: rest ->
    Alcotest.(check bool) "first cycle pays" true (first > 0);
    Alcotest.(check bool) "later cycles cheaper" true
      (List.for_all (fun c -> c < first) rest)
  | [] -> Alcotest.fail "no retunes"

let test_daemon_deterministic_replay () =
  let stream = stream_of_reps 6 in
  let trail jobs =
    let d = replay (daemon_opts ~jobs ()) stream in
    List.map
      (fun (r : D.Daemon.retune) ->
        ( r.ordinal,
          (match r.action with
          | D.Daemon.Steady -> "steady"
          | D.Daemon.Deployed delta ->
            "deploy:" ^ Relax_physical.Ddl.delta_to_string delta
          | D.Daemon.Rejected _ -> "reject"
          | D.Daemon.Rolled_back _ -> "rollback") ))
      (D.Daemon.history d)
    @ [ (-1, Config_json.to_string (D.Daemon.deployed d)) ]
  in
  let t1 = trail 1 and t4 = trail 4 in
  Alcotest.(check (list (pair int string)))
    "identical delta sequence at --jobs 1 and 4" t1 t4

let test_daemon_rollback () =
  let stream = stream_of_reps 6 in
  let opts = daemon_opts ~inject:(2, 50.0) () in
  let d = D.Daemon.create (Lazy.force cat) opts in
  let initial_json = D.Daemon.deployed_json d in
  let pre_deploy = ref initial_json and prev = ref initial_json in
  let rollback_json = ref None in
  List.iter
    (fun e ->
      match D.Daemon.ingest d e with
      | None -> ()
      | Some r ->
        let json = D.Daemon.deployed_json d in
        (match r.action with
        | D.Daemon.Deployed _ -> pre_deploy := !prev
        | D.Daemon.Rolled_back _ -> rollback_json := Some (json, !pre_deploy)
        | _ -> ());
        prev := json)
    stream;
  ignore (D.Daemon.finalize d);
  Alcotest.(check int) "exactly one rollback" 1 (D.Daemon.rollbacks d);
  match !rollback_json with
  | None -> Alcotest.fail "no rollback observed"
  | Some (restored, expected) ->
    Alcotest.(check string)
      "previous deployment restored byte-identically" expected restored

let test_daemon_state_persistence () =
  let stream = stream_of_reps 6 in
  let path = Filename.temp_file "relaxd_state" ".json" in
  let opts = { (daemon_opts ()) with state_path = Some path } in
  let d = replay opts stream in
  let persisted = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check string)
    "state file holds the deployment" (D.Daemon.deployed_json d) persisted;
  (* a restarted daemon resumes from the persisted deployment *)
  let d2 = D.Daemon.create (Lazy.force cat) opts in
  Alcotest.(check string)
    "warm-loaded on restart"
    (Config.fingerprint (D.Daemon.deployed d))
    (Config.fingerprint (D.Daemon.deployed d2));
  Sys.remove path

let test_daemon_state_crash_safe () =
  let path = Filename.temp_file "relaxd_state" ".json" in
  let tmp = path ^ ".tmp" in
  let valid = Config.of_indexes [ Index.on "r" [ "cc" ] ] in
  let valid_json = Config_json.to_string valid in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc valid_json);
  (* the remains of a write that crashed halfway *)
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc
        (String.sub valid_json 0 (String.length valid_json / 2)));
  let opts = { (daemon_opts ()) with state_path = Some path } in
  let d = D.Daemon.create (Lazy.force cat) opts in
  Alcotest.(check string)
    "warm-loaded the valid deployment" (Config.fingerprint valid)
    (Config.fingerprint (D.Daemon.deployed d));
  let deployed =
    List.exists
      (fun e ->
        match D.Daemon.ingest d e with
        | Some { action = D.Daemon.Deployed _; _ } -> true
        | _ -> false)
      (stream_of_reps 2)
  in
  Alcotest.(check bool) "a re-tune deployed" true deployed;
  let persisted = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  (match Config_json.of_string persisted with
  | Ok cfg ->
    Alcotest.(check string)
      "state file holds the new deployment"
      (Config.fingerprint (D.Daemon.deployed d))
      (Config.fingerprint cfg)
  | Error msg -> Alcotest.failf "state file does not parse: %s" msg);
  Alcotest.(check bool) "no temporary left" false (Sys.file_exists tmp);
  Sys.remove path

(* deployments written for another catalog: the bench catalog has no
   TPC-H table.  One names an index on [customer]; the other holds only
   the views of the §2 optimal configuration of TPC-H queries 1 and 3,
   which read [customer], [lineitem] and [orders]. *)
let test_daemon_state_foreign_catalog () =
  let tpch_views =
    let cat = W.Tpch.catalog ~scale:0.02 () in
    let inst =
      T.Instrument.optimal_configuration cat ~base:Config.empty
        (W.Tpch.workload_subset [ 1; 3 ])
    in
    List.fold_left Config.remove_index inst.optimal
      (Config.indexes inst.optimal)
  in
  Alcotest.(check bool) "the views-only file holds views" true
    (Config.views tpch_views <> []);
  List.iter
    (fun (name, json) ->
      let path = Filename.temp_file "relaxd_state" ".json" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc json);
      let opts = { (daemon_opts ()) with state_path = Some path } in
      let refused =
        match D.Daemon.create (W.Bench_db.catalog ()) opts with
        | _ -> None
        | exception Failure msg -> Some msg
      in
      Sys.remove path;
      match refused with
      | Some msg ->
        Alcotest.(check bool) (name ^ " names the file: " ^ msg) true
          (Astring_contains.contains msg path)
      | None ->
        Alcotest.failf "%s: a state file for another catalog was loaded" name)
    [
      ( "index on customer",
        {|{"version":1,"indexes":[{"keys":[["customer","c_custkey"]],"suffix":[],"clustered":false}],"views":[]}|}
      );
      ("TPC-H views only", Config_json.to_string tpch_views);
    ]

let test_whatif_evict () =
  let cat = Lazy.force cat in
  let whatif = O.Whatif.create cat in
  let workload = workload_small () in
  ignore (O.Whatif.workload_cost whatif Config.empty workload);
  let calls0, _ = O.Whatif.stats whatif in
  (* everything cached: a recost is free *)
  ignore (O.Whatif.workload_cost whatif Config.empty workload);
  let calls1, _ = O.Whatif.stats whatif in
  Alcotest.(check int) "fully cached" calls0 calls1;
  (* evicting q1 forces its re-optimization but keeps q2 cached *)
  O.Whatif.evict whatif ~keep:(fun q -> q <> "q1");
  ignore (O.Whatif.workload_cost whatif Config.empty workload);
  let calls2, _ = O.Whatif.stats whatif in
  Alcotest.(check int) "only the evicted qid re-optimized" (calls1 + 1) calls2

(* --- the frugal tier on an update workload -------------------------------- *)

let test_frugal_dml_bound_hits () =
  let cat = Lazy.force cat in
  let workload =
    [
      entry "q1" "SELECT r.a FROM r WHERE r.b < 10";
      entry ~weight:2.0 "u1" "UPDATE r SET a = 1 WHERE r.b < 25";
      entry ~weight:2.0 "u2" "UPDATE r SET d = 2 WHERE r.cc < 300";
    ]
  in
  let obs = Relax_obs.Recorder.create () in
  let r =
    T.Tuner.tune ~obs cat workload
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
           ~space_budget:infinity ())
        with
        max_iterations = 80;
        jobs = 1;
        whatif_budget = Some 8;
      }
  in
  let m = r.T.Tuner.metrics in
  let named name =
    Option.value ~default:0 (List.assoc_opt name m.named_counters)
  in
  (* the frugal tier decides candidates from bound intervals on an
     update-heavy workload too *)
  let bound_hits = named "whatif.bound_accepts" + named "whatif.bound_rejects" in
  Alcotest.(check bool)
    (Printf.sprintf "bound decisions on update workload (%d)" bound_hits)
    true (bound_hits > 0);
  Alcotest.(check bool) "recommendation sane" true
    (r.T.Tuner.recommended_cost <= r.T.Tuner.initial_cost +. 1e-6)

(* --- spawned relaxd: SIGTERM mid-stream ----------------------------------- *)

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l -> go (l :: acc)
      in
      go [])

(* cwd is _build/default/test under `dune runtest`, the workspace root
   under `dune exec test/test_main.exe` *)
let relaxd_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/relaxd.exe"; "_build/default/bin/relaxd.exe" ]

let test_relaxd_sigterm () =
  match relaxd_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let jsonl = Filename.temp_file "relaxd_events" ".jsonl" in
    let out_r, out_w = Unix.pipe ~cloexec:false () in
    let in_r, in_w = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process exe
        [|
          exe; "--db"; "bench"; "--retune-every"; "100"; "--min-statements";
          "2"; "--iterations"; "40"; "--jsonl"; jsonl;
        |]
        in_r out_w Unix.stderr
    in
    Unix.close in_r;
    Unix.close out_w;
    Unix.close out_r;
    (* feed a few statements, leave the daemon blocked on the next line,
       then signal it *)
    let oc = Unix.out_channel_of_descr in_w in
    let send sql =
      output_string oc
        (Relax_obs.Json.to_string
           (Relax_obs.Json.Obj [ ("sql", Relax_obs.Json.String sql) ]));
      output_char oc '\n'
    in
    send "SELECT onek.value FROM onek WHERE onek.unique2 < 5000";
    send "SELECT onek.value FROM onek WHERE onek.unique2 < 6000";
    send "SELECT onek.value FROM onek WHERE onek.unique2 < 7000";
    flush oc;
    Unix.sleepf 1.0;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    close_out_noerr oc;
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> Alcotest.failf "relaxd exited %d, expected 0" n
    | Unix.WSIGNALED n -> Alcotest.failf "relaxd killed by signal %d" n
    | Unix.WSTOPPED n -> Alcotest.failf "relaxd stopped by signal %d" n);
    (* the flushed JSONL must be well-formed and end with the shutdown
       event: nothing torn, nothing dropped *)
    let lines = read_lines jsonl in
    Alcotest.(check bool) "events flushed" true (lines <> []);
    List.iter
      (fun l ->
        match Relax_obs.Json.of_string l with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "torn JSONL line %S: %s" l msg)
      lines;
    let last = List.nth lines (List.length lines - 1) in
    (match Relax_obs.Json.of_string last with
    | Ok j ->
      Alcotest.(check (option string))
        "last event is daemon.shutdown" (Some "daemon.shutdown")
        (Option.bind
           (Relax_obs.Json.member "event" j)
           Relax_obs.Json.to_string_opt)
    | Error msg -> Alcotest.failf "bad last line: %s" msg);
    Sys.remove jsonl

(* relaxd's exit status on [args], stdin and stdout on /dev/null *)
let relaxd_status exe args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--db" :: "bench" :: args))
      null_in null_out null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  snd (Unix.waitpid [] pid)

(* a flag value out of range is a command-line error (Cmdliner's exit
   124): not a silent "bounds only" for a negative what-if budget, not an
   uncaught exception (exit 125) for an empty window, not a replay that
   re-tunes after every statement for --retune-every=0, not a tune against
   a negative space budget or a negatively scaled catalog *)
let test_relaxd_refuses flag () =
  match relaxd_exe () with
  | None -> Alcotest.skip ()
  | Some exe -> (
    match relaxd_status exe [ flag ] with
    | Unix.WEXITED 124 -> ()
    | Unix.WEXITED n -> Alcotest.failf "relaxd %s exited %d, expected 124" flag n
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "relaxd %s stopped by signal %d" flag n)

(* --- shutdown plumbing ---------------------------------------------------- *)

let test_shutdown_exit_codes () =
  Alcotest.(check int) "SIGINT" 130 (Relax_obs.Shutdown.exit_code Sys.sigint);
  Alcotest.(check int) "SIGTERM" 143 (Relax_obs.Shutdown.exit_code Sys.sigterm);
  Alcotest.(check int) "protect passes values through" 41
    (Relax_obs.Shutdown.protect (fun () -> 41))

let suite =
  [
    Alcotest.test_case "config json: views round-trip" `Quick
      test_config_json_views;
    Alcotest.test_case "config json: rejects garbage" `Quick
      test_config_json_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_config_json_roundtrip;
    Alcotest.test_case "window: templates and stable qids" `Quick
      test_window_basics;
    QCheck_alcotest.to_alcotest prop_window_decay_monotone;
    Alcotest.test_case "window: rotation drops and refreshes" `Quick
      test_window_rotation;
    Alcotest.test_case "window: capacity eviction" `Quick
      test_window_capacity_eviction;
    Alcotest.test_case "stream: parse" `Quick test_stream_parse;
    Alcotest.test_case "stream: round-trip" `Quick test_stream_roundtrip;
    Alcotest.test_case "stream: parse never raises on truncated lines" `Quick
      test_stream_parse_truncations;
    QCheck_alcotest.to_alcotest prop_stream_parse_flips;
    Alcotest.test_case "guardrail: verdicts" `Quick test_guardrail_verdicts;
    Alcotest.test_case "guardrail: drift predicate" `Quick test_drift_predicate;
    Alcotest.test_case "daemon: warm re-tunes spend fewer calls" `Slow
      test_daemon_warm_fewer_calls;
    Alcotest.test_case "daemon: deterministic replay across jobs" `Slow
      test_daemon_deterministic_replay;
    Alcotest.test_case "daemon: guardrail auto-rollback" `Slow
      test_daemon_rollback;
    Alcotest.test_case "daemon: state persistence" `Slow
      test_daemon_state_persistence;
    Alcotest.test_case "daemon: crash-safe state file" `Slow
      test_daemon_state_crash_safe;
    Alcotest.test_case "daemon: state file for another catalog" `Quick
      test_daemon_state_foreign_catalog;
    Alcotest.test_case "whatif: per-qid eviction" `Quick test_whatif_evict;
    Alcotest.test_case "frugal: bound hits on update workload" `Quick
      test_frugal_dml_bound_hits;
    Alcotest.test_case "relaxd: SIGTERM flushes well-formed JSONL" `Slow
      test_relaxd_sigterm;
    Alcotest.test_case "relaxd: negative what-if budget" `Quick
      (test_relaxd_refuses "--whatif-budget=-1");
    Alcotest.test_case "relaxd: empty window" `Quick
      (test_relaxd_refuses "--window=0");
    Alcotest.test_case "relaxd: re-tune every 0 statements" `Quick
      (test_relaxd_refuses "--retune-every=0");
    Alcotest.test_case "relaxd: negative space budget" `Quick
      (test_relaxd_refuses "--budget-mb=-5");
    Alcotest.test_case "relaxd: negative scale" `Quick
      (test_relaxd_refuses "--scale=-1");
    Alcotest.test_case "shutdown: exit codes" `Quick test_shutdown_exit_codes;
  ]
