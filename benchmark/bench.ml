(* The repository benchmark: six seeded workloads driven through the
   public tuning APIs ([Tuner.tune], [Daemon.ingest]), the end-to-end
   metrics a user of the tuner sees, and a traced pass that reads the
   per-layer spans and counters the program already records.  See
   README.md in this directory for why each workload exists and which
   layer metric should move which end-to-end metric. *)

module W = Relax_workloads
module T = Relax_tuner
module D = Relax_daemon
module C = Relax_check
module O = Relax_optimizer
module Obs = Relax_obs
module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type source =
  | Gen of { update_fraction : float }
      (** the generated TPC-H-like recipe of the frugal and stream
          baselines: 13 templates (generator seed 900) over the 0.02-scale
          catalog *)
  | Substrate  (** the SF-1 statistics substrate (generator seed 7100) *)

type kind =
  | Tune of { iterations : int; whatif_budget : int option; jobs : int }
  | Replay of { iterations : int; retune_every : int; min_statements : int }

type workload = {
  name : string;
  source : source;
  templates : int;
  reps : int;  (** copies of the templates; copy 0 is the templates *)
  kind : kind;
}

let tunes ?whatif_budget ?(jobs = 1) iterations =
  Tune { iterations; whatif_budget; jobs }

let workloads =
  let gen = Gen { update_fraction = 0.0 } in
  [
    { name = "relax-long"; source = gen; templates = 13; reps = 8;
      kind = tunes 300 };
    { name = "relax-frugal"; source = gen; templates = 13; reps = 8;
      kind = tunes ~whatif_budget:384 300 };
    { name = "dml-mix"; source = Gen { update_fraction = 0.25 };
      templates = 13; reps = 8; kind = tunes 300 };
    { name = "substrate-wide"; source = Substrate; templates = 13; reps = 2;
      kind = tunes 8 };
    { name = "substrate-wide-j2"; source = Substrate; templates = 13;
      reps = 2; kind = tunes ~jobs:2 8 };
    { name = "stream-replay"; source = gen; templates = 13; reps = 8;
      kind = Replay { iterations = 300; retune_every = 26; min_statements = 13 } };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* A miniature of [w] for the unit tests: 4 templates in 2 copies (so
   the seed still reaches the inputs), at most 10 iterations. *)
let shrunk w =
  let kind =
    match w.kind with
    | Tune t -> Tune { t with iterations = min t.iterations 10 }
    | Replay _ -> Replay { iterations = 10; retune_every = 4; min_statements = 4 }
  in
  { w with templates = 4; reps = 2; kind }

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

type inputs = {
  schema : W.Generator.schema;
  statements : Query.workload;
  budget : float;  (** bytes: 1.3x the base data *)
  lines : string list;  (** the statements as JSONL stream lines *)
}

let catalog i = i.schema.W.Generator.catalog

(* The seed re-draws the constants of every re-parameterized copy; the
   template set and the catalog statistics stay fixed, because they
   decide what the workload measures (changing them moves a tune's
   what-if calls by 3x and its improvement by 40 points). *)
let make_inputs w ~seed =
  let schema, template_seed, copy_seed =
    match w.source with
    | Gen _ -> (W.Bench_db.tpch_schema ~scale:0.02 (), 900, 901 + seed)
    | Substrate ->
      ( W.Substrate.schema ~sf:1.0 (),
        W.Substrate.default_seed,
        W.Substrate.default_seed + 1 + seed )
  in
  let update_fraction =
    match w.source with Gen g -> g.update_fraction | Substrate -> 0.0
  in
  let profile = { W.Generator.default_profile with update_fraction } in
  let templates =
    W.Generator.workload ~seed:template_seed ~profile schema ~n:w.templates
  in
  let rng = Relax_catalog.Rng.create copy_seed in
  let statements =
    List.concat_map
      (fun rep ->
        List.map
          (fun (e : Query.entry) ->
            { e with qid = Printf.sprintf "%s-r%d" e.qid rep })
          (if rep = 0 then templates
           else W.Generator.reparameterize schema rng templates))
      (List.init w.reps Fun.id)
  in
  {
    schema;
    statements;
    budget = 1.3 *. Config.total_bytes schema.catalog Config.empty;
    lines = List.map D.Stream.line_of_entry statements;
  }

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Obs.Clock.now () in
  let x = f () in
  (x, Obs.Clock.elapsed_s ~since:t0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [f] until [seconds] have elapsed since the first call (at least
   once), stopping early when an operation fails.  Also returns the peak
   heap after the first operation: later ones add the garbage of earlier
   ones, so a peak read at the end would depend on how many fit. *)
let repeat_for ~seconds f =
  let start = Obs.Clock.now () in
  let heap_mb = ref 0.0 in
  let rec go acc =
    match f () with
    | None -> List.rev acc
    | Some x ->
      if acc = [] then heap_mb := peak_heap_mb ();
      if Obs.Clock.elapsed_s ~since:start >= seconds then List.rev (x :: acc)
      else go (x :: acc)
  in
  let results = go [] in
  (results, !heap_mb)

(* Mean wall time of one call of [f], in microseconds.  [f] is repeated
   in doubling batches until a batch spans 20 µs, so operations far
   below the clock's microsecond resolution still read with all their
   digits. *)
let per_call_us f =
  let rec go n =
    let t0 = Obs.Clock.now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Obs.Clock.elapsed_s ~since:t0 in
    if dt >= 20e-6 then dt *. 1e6 /. float_of_int n else go (2 * n)
  in
  go 1

let p50 = function [] -> 0.0 | xs -> Stats.median xs

(* A timing as the report states it: sample count, median and quartiles,
   and the highest percentile with ten samples beyond it, if any. *)
let timing_note label xs =
  let n = List.length xs in
  let q1, med, q3 = Stats.quartiles xs in
  Printf.sprintf "%s: n=%d, median %.4f s, quartiles %.4f..%.4f s, %s" label n
    med q1 q3
    (match Stats.highest_percentile n with
    | None -> "too few samples for a higher percentile"
    | Some p -> Printf.sprintf "p%g %.4f s" p (Stats.percentile xs p))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Output checks and operation accounting                               *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** failed output checks, newest first *)
}

let new_tally () = { attempted = 0; failed = 0; errors = [] }
let error tally msg = tally.errors <- msg :: tally.errors

(* One operation: counted as attempted, and as failed (stopping the
   measurement loop) when it raises. *)
let attempt tally label f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | x -> Some x
  | exception e ->
    tally.failed <- tally.failed + 1;
    error tally (Printf.sprintf "%s raised %s" label (Printexc.to_string e));
    None

(* The guardrail's oracles on a recommendation: structural invariants,
   the packing-simulation size oracle, the space budget and an
   independent what-if recompute of the claimed cost within 1%. *)
let validate inputs ~workload ~claimed_cost config =
  let v =
    C.Guardrail.validate (catalog inputs) ~workload ~space_budget:inputs.budget
      ~claimed_cost config
  in
  if v.C.Guardrail.passed then Ok () else Error v.C.Guardrail.reasons

(* A tune fails when its recommendation does not pass [validate]. *)
let check_tune tally inputs (r : T.Tuner.result) =
  match
    validate inputs ~workload:inputs.statements
      ~claimed_cost:r.recommended_cost r.recommended
  with
  | Ok () -> true
  | Error reasons ->
    tally.failed <- tally.failed + 1;
    error tally ("guardrail rejected the recommendation: "
                 ^ String.concat "; " reasons);
    false

let digest config = Digest.to_hex (Digest.string (Config.fingerprint config))

(* What must be identical between two tunes of the same inputs. *)
type outcome = { fingerprint : string; what_if_calls : int; cost_pct : float }

let outcome_of (r : T.Tuner.result) =
  {
    fingerprint = digest r.recommended;
    what_if_calls = r.metrics.what_if_calls;
    cost_pct = 100.0 *. ratio r.recommended_cost r.initial_cost;
  }

let pp_outcome o =
  Printf.sprintf "fingerprint %s, %d what-if calls, cost_pct %.17g"
    o.fingerprint o.what_if_calls o.cost_pct

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* Name and unit of every metric, in the order BENCHMARK.json declares
   them; the test suite checks the two lists agree. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("retune_p50_s", "s");
    ("what_if_calls", "count");
    ("cost_pct", "%");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("search.rank_candidates.self_s", "s");
    ("search.rank_candidates.calls", "count");
    ("gc.minor_words_per_config", "words");
    ("transform.enumerate_us", "us");
    ("transform.root_candidates", "count");
    ("transform.apply_us_p50", "us");
    ("env.make_us_p50", "us");
    ("cost_bound.query_bound_us_p50", "us");
    ("cost_bound.query_lower_bound_us_p50", "us");
    ("size_model.delta_us_p50", "us");
    ("search.evaluate.self_s", "s");
    ("search.patched_ratio", "ratio");
    ("whatif.optimize.total_s", "s");
    ("whatif.optimize.p50_ms", "ms");
    ("whatif.optimize.p90_ms", "ms");
    ("whatif.hit_ratio", "ratio");
    ("optimizer.optimize.calls", "count");
    ("access_path.requests", "count");
    ("optimizer.cold_ms_p50", "ms");
    ("instrument.total_s", "s");
    ("instrument.passes", "count");
    ("frugal.bound_accepts", "count");
    ("frugal.bound_rejects", "count");
    ("frugal.accept_ratio", "ratio");
    ("frugal.budget_spent", "count");
    ("update_cost.shell_us_p50", "us");
    ("pool.tasks", "count");
    ("pool.tasks_per_batch", "count");
    ("pool.task_wait_pct", "%");
    ("pool.worker_busy_pct", "%");
    ("daemon.ingest_us_mean", "us");
    ("stream.parse_line_us_p50", "us");
    ("daemon.retune_hit_ratio", "ratio");
    ("daemon.zero_call_retunes", "count");
    ("daemon.rollbacks", "count");
    ("guardrail.validate_s", "s");
    ("obs.trace_overhead_pct", "%");
  ]

type result = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks, oldest first *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  outcome : outcome option;  (** the deterministic output, for references *)
  notes : string list;  (** human-readable lines printed before the metrics *)
}

(* Pair every declared metric with its measured value; a declared metric
   the pass did not produce is a bug in this file. *)
let collect declared values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, v, unit)
      | None -> failwith ("benchmark: metric " ^ name ^ " was not measured"))
    declared

(* ------------------------------------------------------------------ *)
(* Tune workloads                                                       *)
(* ------------------------------------------------------------------ *)

let tune_options inputs ~iterations ~whatif_budget ~jobs =
  {
    (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
       ~space_budget:inputs.budget ())
    with
    max_iterations = iterations;
    whatif_budget;
    jobs;
  }

let tune inputs opts = T.Tuner.tune (catalog inputs) inputs.statements opts

(* Tunes of the same inputs must give the same outcome. *)
let check_same tally ~what first others =
  List.iter
    (fun o ->
      if o <> first then
        error tally
          (Printf.sprintf "%s differ: %s vs %s" what (pp_outcome first)
             (pp_outcome o)))
    others

let setup_repeats = 3

(* Set up [w] [n] times (catalog build and input generation); the median
   time is setup_s, the last inputs are measured. *)
let setup w ~seed ~n =
  let runs = List.init n (fun _ -> timed (fun () -> make_inputs w ~seed)) in
  (fst (List.nth runs (n - 1)), Stats.median (List.map snd runs))

let run_tune_untraced w ~seed ~seconds ~setups ~iterations ~whatif_budget ~jobs =
  let tally = new_tally () in
  let inputs, setup_s = setup w ~seed ~n:setups in
  let opts = tune_options inputs ~iterations ~whatif_budget ~jobs in
  let runs, heap_mb =
    repeat_for ~seconds (fun () ->
        attempt tally "tune" (fun () -> timed (fun () -> tune inputs opts)))
  in
  let outcome =
    match runs with
    | [] -> None
    | (r0, _) :: rest ->
      let o0 = outcome_of r0 in
      check_same tally ~what:"tunes of the same inputs" o0
        (List.map (fun (r, _) -> outcome_of r) rest);
      (* the tunes are identical, so one verdict covers them all *)
      if not (check_tune tally inputs r0) then
        tally.failed <- tally.failed + List.length rest;
      (* the pool dispatch must not change the result *)
      (if jobs > 1 then
         match
           attempt tally "jobs-1 tune" (fun () ->
               tune inputs { opts with jobs = 1 })
         with
         | None -> ()
         | Some r1 ->
           check_same tally
             ~what:(Printf.sprintf "jobs %d and jobs 1 tunes" jobs)
             o0 [ outcome_of r1 ]);
      Some o0
  in
  let times = List.map snd runs in
  let metrics =
    match outcome with
    | None -> []
    | Some o ->
      [
        ("setup_s", setup_s);
        ("run_s", Stats.median times);
        ("retune_p50_s", Stats.median times);
        ("what_if_calls", float_of_int o.what_if_calls);
        ("cost_pct", o.cost_pct);
        ("peak_heap_mb", heap_mb);
      ]
  in
  let notes =
    [
      Printf.sprintf "inputs: %d statements (%d DML), budget %.0f bytes"
        (List.length inputs.statements)
        (List.length (T.Search.prepare inputs.statements).dmls)
        inputs.budget;
    ]
    @ if times = [] then [] else [ timing_note "tune wall time" times ]
  in
  (tally, outcome, metrics, notes)

(* ------------------------------------------------------------------ *)
(* Per-layer probes                                                     *)
(* ------------------------------------------------------------------ *)

(* Kernel probes, timed from here over the root node of the search: the
   optimal configuration's plans and every transformation enumerated on
   it — the work [Search.rank_candidates] does per candidate.  All
   workloads tune indexes only, so no view costing is involved. *)
let kernel_probes inputs ~workload ~(optimal : Config.t) =
  let cat = catalog inputs in
  let prepared = T.Search.prepare workload in
  let env = O.Env.make cat optimal in
  let cold_ms = ref [] in
  let plans =
    Array.map
      (fun (_, _, sq) ->
        let plan, dt = timed (fun () -> O.Optimizer.optimize_select env sq) in
        cold_ms := (dt *. 1e3) :: !cold_ms;
        (plan, (sq : Query.select_query).order_by))
      prepared.selects_arr
  in
  let transforms, enumerate_s =
    timed (fun () -> T.Transform.enumerate ~protected:Config.empty optimal)
  in
  let apply tr = T.Transform.apply ~estimate_rows:(fun _ -> 0.0) optimal tr in
  let context tr config' : T.Cost_bound.context =
    {
      env' = O.Env.make cat config';
      old_env = env;
      removed_indexes = T.Transform.removed_indexes optimal tr;
      removed_views = T.Transform.removed_views tr;
      view_merge = None;
      cbv = (fun _ -> 0.0);
      expands = T.Transform.adds_structures tr;
    }
  in
  let delta_space config' =
    let old_set = Config.index_set optimal and new_set = Config.index_set config' in
    Index.Set.fold
      (fun i a -> a +. Config.index_bytes cat optimal i)
      (Index.Set.diff old_set new_set) 0.0
    -. Index.Set.fold
         (fun i a -> a +. Config.index_bytes cat config' i)
         (Index.Set.diff new_set old_set) 0.0
  in
  let apply_us = ref [] and context_us = ref [] and size_us = ref [] in
  let bound_us = ref [] and lower_us = ref [] in
  List.iter
    (fun tr ->
      apply_us := per_call_us (fun () -> apply tr) :: !apply_us;
      match apply tr with
      | None -> ()
      | Some config' ->
        context_us := per_call_us (fun () -> context tr config') :: !context_us;
        size_us := per_call_us (fun () -> delta_space config') :: !size_us;
        let ctx = context tr config' in
        Array.iter
          (fun (plan, order_by) ->
            if T.Cost_bound.plan_affected ctx plan then begin
              bound_us :=
                per_call_us (fun () ->
                    T.Cost_bound.query_bound ~order_by ctx plan)
                :: !bound_us;
              lower_us :=
                per_call_us (fun () ->
                    T.Cost_bound.query_lower_bound ~order_by ctx plan)
                :: !lower_us
            end)
          plans)
    transforms;
  [
    ("transform.enumerate_us", enumerate_s *. 1e6);
    ("transform.root_candidates", float_of_int (List.length transforms));
    ("transform.apply_us_p50", p50 !apply_us);
    ("env.make_us_p50", p50 !context_us);
    ("cost_bound.query_bound_us_p50", p50 !bound_us);
    ("cost_bound.query_lower_bound_us_p50", p50 !lower_us);
    ("size_model.delta_us_p50", p50 !size_us);
    ("optimizer.cold_ms_p50", p50 !cold_ms);
  ]

(* Update-shell costing against the optimal configuration, over the
   workload's DML or, when it has none, 13 statements generated from the
   seed, so the probe reads the same kernel on every workload. *)
let shell_probe inputs ~seed ~workload ~optimal =
  let dmls =
    match (T.Search.prepare workload).dmls with
    | [] ->
      let rng = Relax_catalog.Rng.create (7919 + seed) in
      List.init 13 (fun _ ->
          W.Generator.random_dml inputs.schema rng W.Generator.default_profile)
    | l -> List.map snd l
  in
  let env = O.Env.make (catalog inputs) optimal in
  p50
    (List.map
       (fun d -> per_call_us (fun () -> O.Update_cost.shell_cost env optimal d))
       dmls)

(* The stream codec and the daemon's ingest path over the workload's own
   statements: parsing each JSONL line, and feeding each statement to a
   daemon that never re-tunes. *)
let ingest_probes inputs =
  let parse_us =
    List.map
      (fun line -> per_call_us (fun () -> D.Stream.parse_line line))
      inputs.lines
  in
  let daemon =
    D.Daemon.create (catalog inputs)
      {
        (D.Daemon.default_options ~space_budget:inputs.budget ()) with
        retune_every = max_int;
        min_statements = max_int;
      }
  in
  let _, ingest_s =
    timed (fun () ->
        List.iter
          (fun e -> ignore (D.Daemon.ingest daemon e))
          inputs.statements)
  in
  [
    ("stream.parse_line_us_p50", p50 parse_us);
    ( "daemon.ingest_us_mean",
      ingest_s *. 1e6 /. float_of_int (List.length inputs.statements) );
  ]

(* Layer metrics of one traced tune, read from the spans and counters the
   program recorded into the ambient profiling recorder. *)
let tune_layer_metrics (m : Obs.Metrics.snapshot) ~minor_words ~tune_s ~jobs =
  let span name =
    List.find_opt
      (fun (s : Obs.Metrics.span_stat) -> String.equal s.span_name name)
      m.spans
  in
  let self name = Option.fold ~none:0.0 ~some:(fun s -> s.Obs.Metrics.self_s) (span name) in
  let total name = Option.fold ~none:0.0 ~some:(fun s -> s.Obs.Metrics.total_s) (span name) in
  let calls name =
    float_of_int (Option.fold ~none:0 ~some:(fun s -> s.Obs.Metrics.calls) (span name))
  in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name m.named_counters))
  in
  let hist name = List.assoc_opt name m.latency in
  let quantile_ms name q =
    Option.fold ~none:0.0 ~some:(fun h -> 1e3 *. Obs.Histogram.quantile h q) (hist name)
  in
  let hist_total name = Option.fold ~none:0.0 ~some:Obs.Histogram.total_s (hist name) in
  let generated =
    float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 m.transforms_generated)
  in
  let busy_s =
    List.fold_left
      (fun a (k, v) ->
        match String.split_on_char '.' k with
        | [ "pool"; _; "busy_ms" ] -> a +. (float_of_int v /. 1e3)
        | _ -> a)
      0.0 m.named_counters
  in
  let accepts = counter "whatif.bound_accepts" and rejects = counter "whatif.bound_rejects" in
  let calls_f = float_of_int m.what_if_calls and hits = float_of_int m.cache_hits in
  let patched = float_of_int m.plans_patched in
  [
    ("search.rank_candidates.self_s", self "search.rank_candidates");
    ("search.rank_candidates.calls", calls "search.rank_candidates");
    ("gc.minor_words_per_config", ratio minor_words generated);
    ("search.evaluate.self_s", self "search.evaluate");
    ( "search.patched_ratio",
      ratio patched (patched +. float_of_int m.plans_reoptimized) );
    ("whatif.optimize.total_s", total "whatif.optimize");
    ("whatif.optimize.p50_ms", quantile_ms "whatif.optimize" 0.5);
    ("whatif.optimize.p90_ms", quantile_ms "whatif.optimize" 0.9);
    ("whatif.hit_ratio", ratio hits (hits +. calls_f));
    ("optimizer.optimize.calls", calls "optimizer.optimize");
    ("access_path.requests", counter "access_path.requests");
    ("instrument.total_s", total "tuner.instrument");
    ("instrument.passes", counter "instrument.passes");
    ("frugal.bound_accepts", accepts);
    ("frugal.bound_rejects", rejects);
    ("frugal.accept_ratio", ratio accepts (accepts +. rejects));
    ("frugal.budget_spent", counter "whatif.budget_spent");
    ("pool.tasks", counter "pool.tasks");
    ("pool.tasks_per_batch", ratio (counter "pool.tasks") (counter "pool.batches"));
    ( "pool.task_wait_pct",
      let wait = hist_total "pool.task.wait_s" in
      100.0 *. ratio wait (wait +. hist_total "pool.task.run_s") );
    ( "pool.worker_busy_pct",
      100.0 *. ratio busy_s (float_of_int jobs *. tune_s) );
  ]

(* One untraced and one traced tune, alternating until [seconds] have
   passed.  Returns the traced tune's result, its recorder and metrics
   layer values, and the median untraced and traced wall times. *)
let traced_tunes tally inputs opts ~seconds =
  let pairs, _ =
    repeat_for ~seconds (fun () ->
        match attempt tally "tune" (fun () -> timed (fun () -> tune inputs opts)) with
        | None -> None
        | Some (_, untraced_s) ->
          let recorder = Obs.Recorder.create ~profile:true () in
          attempt tally "traced tune" (fun () ->
              let g0 = Gc.quick_stat () in
              let r, traced_s =
                timed (fun () ->
                    Obs.Recorder.with_ambient recorder (fun () -> tune inputs opts))
              in
              let g1 = Gc.quick_stat () in
              (untraced_s, traced_s, r, recorder, g1.minor_words -. g0.minor_words)))
  in
  match List.rev pairs with
  | [] -> None
  | (_, _, r, recorder, minor_words) :: _ ->
    let untraced = Stats.median (List.map (fun (u, _, _, _, _) -> u) pairs) in
    let traced = Stats.median (List.map (fun (_, t, _, _, _) -> t) pairs) in
    Some (r, recorder, minor_words, untraced, traced)

(* Write the traced recorder as [dir/name.json]; the report line says where. *)
let write_chrome recorder ~dir ~name =
  let path = Filename.concat dir (name ^ ".json") in
  match Obs.Chrome.write recorder path with
  | () -> "chrome trace: " ^ path
  | exception Sys_error msg -> "chrome trace not written: " ^ msg

let overhead_pct ~untraced ~traced = 100.0 *. ratio (traced -. untraced) untraced

let run_tune_traced w ~seed ~seconds ~trace_dir ~iterations ~whatif_budget ~jobs =
  let tally = new_tally () in
  let inputs, _ = setup w ~seed ~n:1 in
  let opts = tune_options inputs ~iterations ~whatif_budget ~jobs in
  match traced_tunes tally inputs opts ~seconds with
  | None -> (tally, None, [], [])
  | Some (r, recorder, minor_words, untraced, traced) ->
    let note = write_chrome recorder ~dir:trace_dir ~name:w.name in
    let _, validate_s = timed (fun () -> check_tune tally inputs r) in
    let metrics =
      tune_layer_metrics r.metrics ~minor_words ~tune_s:r.elapsed_s ~jobs
      @ kernel_probes inputs ~workload:inputs.statements ~optimal:r.optimal
      @ ingest_probes inputs
      @ [
          ( "update_cost.shell_us_p50",
            shell_probe inputs ~seed ~workload:inputs.statements
              ~optimal:r.optimal );
          ("daemon.retune_hit_ratio", 0.0);
          ("daemon.zero_call_retunes", 0.0);
          ("daemon.rollbacks", 0.0);
          ("guardrail.validate_s", validate_s);
          ("obs.trace_overhead_pct", overhead_pct ~untraced ~traced);
        ]
    in
    (tally, None, metrics, [ note ])

(* ------------------------------------------------------------------ *)
(* The stream workload                                                  *)
(* ------------------------------------------------------------------ *)

(* No window rotation: right after the first one, the drift probe of the
   next retune fires a false-alarm rollback on about half the seeds
   (drift 1.311 > 1.25 at seed 0), which would make every end-to-end
   metric of the stream bimodal across seeds. *)
let daemon_options inputs ~iterations ~retune_every ~min_statements =
  {
    (D.Daemon.default_options ~space_budget:inputs.budget ()) with
    mode = T.Tuner.Indexes_only;
    retune_every;
    min_statements;
    rotate_every = 0;
    max_iterations = iterations;
    jobs = 1;
  }

(* Replay the JSONL lines into a fresh daemon, exactly as relaxd reads
   them, then shut it down (one last re-tune over the residual window). *)
let replay ?recorder inputs opts =
  let daemon = D.Daemon.create ?recorder (catalog inputs) opts in
  List.iter
    (fun line ->
      match D.Stream.parse_line line with
      | Ok e -> ignore (D.Daemon.ingest daemon e)
      | Error msg -> failwith ("stream line does not parse: " ^ msg))
    inputs.lines;
  ignore (D.Daemon.finalize daemon);
  daemon

type replay_outcome = {
  deployed : string;
  actions : (string * int) list;  (** per retune: action, what-if calls *)
}

let action_name (r : D.Daemon.retune) =
  match r.action with
  | D.Daemon.Steady -> "steady"
  | D.Daemon.Deployed _ -> "deploy"
  | D.Daemon.Rejected _ -> "reject"
  | D.Daemon.Rolled_back _ -> "rollback"

let replay_outcome daemon =
  {
    deployed = digest (D.Daemon.deployed daemon);
    actions =
      List.map (fun r -> (action_name r, r.D.Daemon.what_if_calls)) (D.Daemon.history daemon);
  }

(* A retune fails when the guardrail rejects its proposal or the daemon
   rolls a deployment back: no drift is injected, so a rollback is a
   false alarm. *)
let count_retunes (tally : tally) daemon =
  List.iter
    (fun (r : D.Daemon.retune) ->
      tally.attempted <- tally.attempted + 1;
      match r.action with
      | D.Daemon.Steady | D.Daemon.Deployed _ -> ()
      | D.Daemon.Rejected reasons ->
        tally.failed <- tally.failed + 1;
        error tally
          (Printf.sprintf "retune %d rejected: %s" r.ordinal
             (String.concat "; " reasons))
      | D.Daemon.Rolled_back { drift } ->
        tally.failed <- tally.failed + 1;
        error tally
          (Printf.sprintf "retune %d rolled back a deployment (drift %.3f)"
             r.ordinal drift))
    (D.Daemon.history daemon)

(* The final deployment must pass the guardrail against the final
   window; its cost there, over the base configuration's, is cost_pct.
   Returns cost_pct and the guardrail's wall time. *)
let check_deployment (tally : tally) inputs daemon =
  let cost config = T.Tuner.workload_cost (catalog inputs) config in
  let window = D.Daemon.window_workload daemon in
  let deployed = D.Daemon.deployed daemon in
  let deployed_cost = cost deployed window in
  let verdict, validate_s =
    timed (fun () ->
        validate inputs ~workload:window ~claimed_cost:deployed_cost deployed)
  in
  (match verdict with
  | Ok () -> ()
  | Error reasons ->
    tally.failed <- tally.failed + 1;
    error tally ("guardrail rejected the final deployment: "
                 ^ String.concat "; " reasons));
  (100.0 *. ratio deployed_cost (cost Config.empty window), validate_s)

let run_replay_untraced w ~seed ~seconds ~setups ~opts_of =
  let tally = new_tally () in
  let inputs, setup_s = setup w ~seed ~n:setups in
  let opts = opts_of inputs in
  let runs, heap_mb =
    repeat_for ~seconds (fun () ->
        Option.map
          (fun (d, s) ->
            count_retunes tally d;
            (d, s))
          (attempt tally "replay" (fun () -> timed (fun () -> replay inputs opts))))
  in
  let retune_s =
    List.concat_map
      (fun (d, _) -> List.map (fun r -> r.D.Daemon.elapsed_s) (D.Daemon.history d))
      runs
  in
  let outcome, metrics =
    match runs with
    | [] -> (None, [])
    | (d0, _) :: _ ->
      let o0 = replay_outcome d0 in
      List.iter
        (fun (d, _) ->
          if replay_outcome d <> o0 then
            error tally "replays of the same stream differ")
        runs;
      let cost_pct, _ = check_deployment tally inputs d0 in
      let calls = List.fold_left (fun a (_, c) -> a + c) 0 o0.actions in
      ( Some { fingerprint = o0.deployed; what_if_calls = calls; cost_pct },
        [
          ("setup_s", setup_s);
          ("run_s", Stats.median (List.map snd runs));
          ("retune_p50_s", Stats.median retune_s);
          ("what_if_calls", float_of_int calls);
          ("cost_pct", cost_pct);
          ("peak_heap_mb", heap_mb);
        ] )
  in
  let notes =
    Printf.sprintf "inputs: %d stream lines, budget %.0f bytes"
      (List.length inputs.lines) inputs.budget
    ::
    (match runs with
    | [] -> []
    | (d, _) :: _ ->
      [
        timing_note "replay wall time" (List.map snd runs);
        timing_note "retune latency" retune_s;
        Printf.sprintf "retunes (action/what-if calls): %s"
          (String.concat " "
             (List.map
                (fun r ->
                  Printf.sprintf "%s/%d" (action_name r) r.D.Daemon.what_if_calls)
                (D.Daemon.history d)));
      ])
  in
  (tally, outcome, metrics, notes)

(* Retunes run under the daemon's private per-cycle recorders, so the
   daemon's layer metrics come from its retune records and from timing
   its public calls; the search and what-if layer metrics come from a
   from-scratch tune of the final window under the traced recorder. *)
let run_replay_traced w ~seed ~seconds ~trace_dir ~opts_of =
  let tally = new_tally () in
  let inputs, _ = setup w ~seed ~n:1 in
  let opts = opts_of inputs in
  let pairs, _ =
    repeat_for ~seconds (fun () ->
        match attempt tally "replay" (fun () -> timed (fun () -> replay inputs opts)) with
        | None -> None
        | Some (d, untraced_s) ->
          count_retunes tally d;
          let recorder = Obs.Recorder.create ~profile:true () in
          Option.map
            (fun (d, traced_s) -> (untraced_s, traced_s, d, recorder))
            (attempt tally "traced replay" (fun () ->
                 timed (fun () ->
                     Obs.Recorder.with_ambient recorder (fun () ->
                         replay ~recorder inputs opts)))))
  in
  match List.rev pairs with
  | [] -> (tally, None, [], [])
  | (_, _, daemon, recorder) :: _ ->
    let untraced = Stats.median (List.map (fun (u, _, _, _) -> u) pairs) in
    let traced = Stats.median (List.map (fun (_, t, _, _) -> t) pairs) in
    let window = D.Daemon.window_workload daemon in
    let topts =
      tune_options inputs ~iterations:opts.D.Daemon.max_iterations
        ~whatif_budget:None ~jobs:1
    in
    let g0 = Gc.quick_stat () in
    let scratch =
      Obs.Recorder.with_ambient recorder (fun () ->
          T.Tuner.tune (catalog inputs) window topts)
    in
    let g1 = Gc.quick_stat () in
    let note = write_chrome recorder ~dir:trace_dir ~name:w.name in
    let _, validate_s = check_deployment tally inputs daemon in
    let history = D.Daemon.history daemon in
    let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 history) in
    let calls = sum (fun r -> r.D.Daemon.what_if_calls) in
    let hits = sum (fun r -> r.D.Daemon.cache_hits) in
    let metrics =
      tune_layer_metrics scratch.metrics
        ~minor_words:(g1.minor_words -. g0.minor_words)
        ~tune_s:scratch.elapsed_s ~jobs:1
      @ kernel_probes inputs ~workload:window ~optimal:scratch.optimal
      @ ingest_probes inputs
      @ [
          ( "update_cost.shell_us_p50",
            shell_probe inputs ~seed ~workload:window ~optimal:scratch.optimal );
          ("daemon.retune_hit_ratio", ratio hits (hits +. calls));
          ( "daemon.zero_call_retunes",
            sum (fun r -> if r.D.Daemon.what_if_calls = 0 then 1 else 0) );
          ("daemon.rollbacks", float_of_int (D.Daemon.rollbacks daemon));
          ("guardrail.validate_s", validate_s);
          ("obs.trace_overhead_pct", overhead_pct ~untraced ~traced);
        ]
    in
    (tally, None, metrics, [ note ])

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(setups = setup_repeats) w ~seed ~seconds ~traced ~trace_dir =
  let tally, outcome, values, notes =
    match (w.kind, traced) with
    | Tune { iterations; whatif_budget; jobs }, false ->
      run_tune_untraced w ~seed ~seconds ~setups ~iterations ~whatif_budget ~jobs
    | Tune { iterations; whatif_budget; jobs }, true ->
      run_tune_traced w ~seed ~seconds ~trace_dir ~iterations ~whatif_budget
        ~jobs
    | Replay { iterations; retune_every; min_statements }, _ ->
      let opts_of inputs =
        daemon_options inputs ~iterations ~retune_every ~min_statements
      in
      if traced then run_replay_traced w ~seed ~seconds ~trace_dir ~opts_of
      else run_replay_untraced w ~seed ~seconds ~setups ~opts_of
  in
  let declared = if traced then per_layer else end_to_end in
  let metrics = if values = [] then [] else collect declared values in
  {
    workload = w.name;
    seed;
    traced;
    correct = tally.errors = [] && tally.failed = 0 && metrics <> [];
    attempted = tally.attempted;
    failed = tally.failed;
    errors = List.rev tally.errors;
    metrics;
    outcome;
    notes;
  }

let result_json r =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool r.correct);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Obj [ ("value", Float v); ("unit", String unit) ]))
             r.metrics) );
    ]
