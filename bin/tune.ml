(** [tune] — command-line physical design tuning.

    Tunes a workload against one of the built-in databases (or a SQL script
    file) with either the relaxation-based tuner (PTT, the paper's
    contribution) or the bottom-up baseline (CTT), and prints the
    recommendation, the space/cost frontier and request statistics.

    Examples:
    {v
    tune --db tpch --queries 1,3,6,10 --budget-mb 40
    tune --db ds1 --generate 12 --seed 7 --updates 0.3 --tool ctt
    tune --db tpch --file workload.sql --mode indexes --iterations 500
    v} *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module T = Relax_tuner
module B = Relax_baseline
module W = Relax_workloads
open Cmdliner

type db = Tpch | Ds1 | Bench

let schema_of_db ~scale = function
  | Tpch -> W.Bench_db.tpch_schema ~scale ()
  | Ds1 -> W.Star.schema ~scale ()
  | Bench -> W.Bench_db.schema ~scale ()

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Fmt.epr "tune: cannot read %s: %s@." path msg;
    exit 2

let load_workload ~db ~scale ~schema_file ~queries ~file ~generate ~seed
    ~updates =
  let schema =
    match schema_file with
    | None -> schema_of_db ~scale db
    | Some path ->
      let catalog, joins = Relax_catalog.Schema_parser.parse (read_file path) in
      { W.Generator.catalog; joins }
  in
  let workload =
    match (file, queries, db) with
    | Some path, _, _ -> Relax_sql.Parser.workload (read_file path)
    | None, Some nums, Tpch when schema_file = None ->
      W.Tpch.workload_subset nums
    | None, Some _, _ ->
      failwith "--queries only applies to --db tpch (the 22 fixed queries)"
    | None, None, Tpch when generate = 0 && schema_file = None ->
      W.Tpch.workload ()
    | None, None, _ ->
      let n = if generate = 0 then 10 else generate in
      let profile =
        { W.Generator.default_profile with update_fraction = updates }
      in
      W.Generator.workload ~seed ~profile schema ~n
  in
  (schema.catalog, workload)

let run db scale schema_file queries file generate seed updates tool mode
    budget_mb iterations time_s jobs whatif_budget ddl
    do_compress explain analyze verbose log_level trace_file
    trace_chrome_file metrics frontier_csv_file check check_jsonl =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else log_level);
  (* a SIGINT/SIGTERM mid-run unwinds through the [Fun.protect] around
     the tuner, closing the trace sink before the process exits 128+N *)
  Relax_obs.Shutdown.install ();
  Relax_obs.Shutdown.protect @@ fun () ->
  let catalog, workload =
    load_workload ~db ~scale ~schema_file ~queries ~file ~generate ~seed
      ~updates
  in
  let workload =
    if do_compress then begin
      let before, after = W.Compress.compression_ratio workload in
      Fmt.pr "compressed workload: %d statements -> %d templates@." before
        after;
      W.Compress.compress workload
    end
    else workload
  in
  Fmt.pr "workload (%d statements):@." (List.length workload);
  List.iter
    (fun (e : Query.entry) ->
      Fmt.pr "  %s: %s@." e.qid
        (Relax_sql.Pretty.statement_to_string e.stmt))
    workload;
  let budget =
    match budget_mb with
    | None -> infinity
    | Some m -> m *. 1024.0 *. 1024.0
  in
  match tool with
  | `Ptt ->
    let mode =
      if mode = "indexes" then T.Tuner.Indexes_only
      else T.Tuner.Indexes_and_views
    in
    let checker =
      match check with
      | None -> None
      | Some _ ->
        Some
          (Relax_check.Checker.create catalog ~workload
             ~protected:Config.empty ())
    in
    let opts =
      {
        (T.Tuner.default_options ~mode ~space_budget:budget ()) with
        max_iterations = iterations;
        time_budget_s = time_s;
        jobs = Option.value jobs ~default:(Relax_parallel.Pool.default_jobs ());
        whatif_budget;
        on_iteration =
          Option.map (fun c -> Relax_check.Checker.hook c) checker;
      }
    in
    let open_out_checked ~what path f =
      try f path
      with Sys_error msg ->
        Fmt.epr "tune: cannot write %s %s: %s@." what path msg;
        exit 2
    in
    let sink =
      Option.map
        (fun p -> open_out_checked ~what:"trace" p Relax_obs.Trace.file)
        trace_file
    in
    let obs =
      Relax_obs.Recorder.create ?sink
        ~profile:(trace_chrome_file <> None)
        ()
    in
    let r =
      Fun.protect
        ~finally:(fun () -> Option.iter Relax_obs.Trace.close sink)
        (fun () -> T.Tuner.tune ~obs catalog workload opts)
    in
    Option.iter
      (fun path -> Fmt.pr "trace written to %s@." path)
      trace_file;
    Option.iter
      (fun path ->
        open_out_checked ~what:"chrome trace" path (fun path ->
            Relax_obs.Chrome.write obs path);
        Fmt.pr "chrome trace written to %s (open in ui.perfetto.dev)@." path)
      trace_chrome_file;
    Fmt.pr "@.%a@." T.Report.pp_summary r;
    Option.iter
      (fun c ->
        let report = Relax_check.Checker.report c in
        Fmt.pr "@.differential check:@.%a" Relax_check.Checker.pp_report
          report;
        Option.iter
          (fun path ->
            open_out_checked ~what:"check JSONL" path (fun path ->
                let sink = Relax_obs.Trace.file path in
                List.iter
                  (fun v ->
                    Relax_obs.Trace.emit sink
                      (Relax_check.Checker.violation_json v))
                  report.Relax_check.Checker.violations;
                Relax_obs.Trace.emit sink
                  (Relax_check.Checker.report_json report);
                Relax_obs.Trace.close sink);
            Fmt.pr "check report written to %s@." path)
          check_jsonl;
        if check = Some `Strict && not (Relax_check.Checker.ok report)
        then begin
          Fmt.epr "tune: --check=strict: %d violation(s)@."
            (List.length report.Relax_check.Checker.violations);
          exit 1
        end)
      checker;
    if metrics then Fmt.pr "@.%a@." T.Report.pp_metrics r;
    Option.iter
      (fun path ->
        open_out_checked ~what:"frontier CSV" path (fun path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (T.Report.frontier_csv r)));
        Fmt.pr "frontier written to %s@." path)
      frontier_csv_file;
    Fmt.pr "@.%a@." T.Report.pp_request_stats r;
    Fmt.pr "@.%a@." T.Report.pp_frontier r;
    Fmt.pr "@.recommended configuration:@.%a@." T.Report.pp_recommendation r;
    if ddl then
      Fmt.pr "@.-- deployment script@.%a@." Relax_physical.Ddl.pp_config
        r.recommended;
    if analyze then begin
      (* generate rows matching the statistics and execute the chosen
         plans: estimated vs measured, before and after *)
      Fmt.pr "@.validating against generated data...@.";
      let db = Relax_engine.Data.create ~seed:2024 catalog in
      let before = Relax_engine.Validate.run db Config.empty workload in
      let after = Relax_engine.Validate.run db r.recommended workload in
      Fmt.pr "@.before:@.%a@." Relax_engine.Validate.pp_report before;
      Fmt.pr "@.after:@.%a@." Relax_engine.Validate.pp_report after;
      Fmt.pr "measured improvement: %.1f%%@."
        (100.0 *. (1.0 -. (after.measured_total /. before.measured_total)))
    end;
    if explain then begin
      let whatif = Relax_optimizer.Whatif.create catalog in
      Fmt.pr "@.chosen plans under the recommendation:@.";
      List.iter
        (fun (e : Query.entry) ->
          match e.stmt with
          | Select sq ->
            let plan =
              Relax_optimizer.Whatif.plan_select whatif r.recommended
                ~qid:e.qid sq
            in
            Fmt.pr "@.-- %s@.%a@." e.qid Relax_optimizer.Plan.pp plan
          | Dml _ -> ())
        workload
    end
  | `Ctt ->
    let opts =
      B.Ctt.default_options ~with_views:(mode <> "indexes")
        ~space_budget:budget ()
    in
    let r = B.Ctt.tune catalog workload opts in
    Fmt.pr "@.CTT (bottom-up baseline):@.";
    Fmt.pr "  improvement : %.1f%%@." r.improvement;
    Fmt.pr "  cost        : %.1f (initial %.1f)@." r.recommended_cost
      r.initial_cost;
    Fmt.pr "  size        : %a@." Relax_physical.Size_model.pp_bytes
      r.recommended_size;
    Fmt.pr "  candidates  : %d, %.2fs@." r.candidate_count r.elapsed_s;
    Fmt.pr "@.recommended configuration:@.%a@." Config.pp r.recommended;
    if ddl then
      Fmt.pr "@.-- deployment script@.%a@." Relax_physical.Ddl.pp_config
        r.recommended

(* --- cmdliner wiring ----------------------------------------------------- *)

(* Numeric flags are range-checked where they are parsed: a value out of
   range is a command-line error (exit 124), like a malformed one. *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
  in
  Arg.conv (parse, Fmt.int)

let float_where ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
  in
  Arg.conv (parse, Fmt.float)

let positive = float_where ~expected:"a number > 0" (fun f -> f > 0.0)

let db =
  let parse = function
    | "tpch" -> Ok Tpch
    | "ds1" -> Ok Ds1
    | "bench" -> Ok Bench
    | s -> Error (`Msg ("unknown database: " ^ s))
  in
  let print ppf d =
    Fmt.string ppf (match d with Tpch -> "tpch" | Ds1 -> "ds1" | Bench -> "bench")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tpch
    & info [ "db" ] ~docv:"DB" ~doc:"Database: tpch, ds1 or bench.")

let scale =
  Arg.(
    value & opt positive 0.02
    & info [ "scale" ] ~docv:"S"
        ~doc:"Database scale factor (1.0 = TPC-H SF-1 row counts).")

let schema_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "schema" ] ~docv:"PATH"
        ~doc:
          "Use a custom database described by a CREATE TABLE script \
           (overrides --db).")

let queries =
  let parse s =
    try Ok (Some (List.map int_of_string (String.split_on_char ',' s)))
    with _ -> Error (`Msg "expected a comma-separated list of query numbers")
  in
  let print ppf = function
    | None -> Fmt.string ppf "all"
    | Some l -> Fmt.(list ~sep:comma int) ppf l
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "queries" ] ~docv:"N,N,..."
        ~doc:"Subset of the 22 TPC-H queries (tpch only).")

let file =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH" ~doc:"Read the workload from a SQL script.")

let generate =
  Arg.(
    value & opt (int_from 0) 0
    & info [ "generate" ] ~docv:"N" ~doc:"Generate N random statements.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let updates =
  Arg.(
    value
    & opt
        (float_where ~expected:"a fraction in [0, 1]" (fun f ->
             f >= 0.0 && f <= 1.0))
        0.0
    & info [ "updates" ] ~docv:"F"
        ~doc:"Fraction of generated statements that are updates.")

let tool =
  Arg.(
    value
    & opt (enum [ ("ptt", `Ptt); ("ctt", `Ctt) ]) `Ptt
    & info [ "tool" ] ~docv:"TOOL"
        ~doc:"Tuner: ptt (relaxation-based) or ctt (bottom-up baseline).")

let mode =
  Arg.(
    value
    & opt (enum [ ("indexes", "indexes"); ("views", "views") ]) "views"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"What to recommend: indexes only, or indexes and views.")

let budget_mb =
  Arg.(
    value
    & opt (some positive) None
    & info [ "budget-mb" ] ~docv:"MB"
        ~doc:"Storage budget in megabytes (absent = unconstrained).")

let iterations =
  Arg.(
    value & opt (int_from 0) 400
    & info [ "iterations" ] ~docv:"N" ~doc:"Relaxation iteration cap (ptt).")

let time_s =
  Arg.(
    value
    & opt (some positive) None
    & info [ "time" ] ~docv:"SECONDS" ~doc:"Wall-clock tuning budget (ptt).")

let jobs =
  Arg.(
    value
    & opt (some (int_from 1)) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the parallel search (ptt only): the caller plus \
           N-1 worker domains; 1 = sequential.  Defaults to \
           \\$(b,RELAX_JOBS) or the machine's domain count (capped at 8).  \
           The recommendation is identical whatever the value.")

let whatif_budget =
  Arg.(
    value
    & opt (some (int_from 0)) None
    & info [ "whatif-budget" ] ~docv:"N"
        ~doc:
          "Frugal costing (ptt only): cap the what-if optimizer calls the \
           relaxation ranking may spend; candidate decisions come from \
           cost-bound intervals and the budget is spent only on candidates \
           the bounds cannot decide.  Absent = unbounded: every plan a \
           relaxation touches is re-optimized.  0 = bounds only; a \
           negative N is an error.  See the whatif.bound_accepts, \
           whatif.bound_rejects and whatif.budget_spent counters in \
           --metrics.")

let ddl =
  Arg.(
    value & flag
    & info [ "ddl" ] ~doc:"Also print the recommendation as a DDL script.")

let do_compress =
  Arg.(
    value & flag
    & info [ "compress" ]
        ~doc:"Compress the workload to weighted templates before tuning.")

let explain =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print the chosen plan of every query under the recommendation \
              (ptt only).")

let analyze =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:"Generate rows matching the statistics and measure the chosen \
              plans: estimated vs actual (ptt only).")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Enable debug logging (same as --log-level debug).")

let log_level =
  let levels =
    [
      ("quiet", None);
      ("app", Some Logs.App);
      ("error", Some Logs.Error);
      ("warning", Some Logs.Warning);
      ("info", Some Logs.Info);
      ("debug", Some Logs.Debug);
    ]
  in
  Arg.(
    value
    & opt (enum levels) (Some Logs.Warning)
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log verbosity: quiet, app, error, warning, info or debug.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write a JSON-lines search trace (ptt only): one event per \
           relaxation iteration with the chosen transformation, predicted \
           \\$(b,delta_cost)/\\$(b,delta_space), penalty, realized \
           cost/size and the cost-bound drift ratio, plus one event per \
           what-if optimizer call.")

let trace_chrome_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-chrome" ] ~docv:"FILE.json"
        ~doc:
          "Write a Chrome trace-event profile of the run (ptt only): the \
           hierarchical span tree on per-domain thread tracks plus \
           counter tracks for what-if calls, cache hits and latency, \
           frontier size, pool queue depth and GC heap words.  Open the file directly in https://ui.perfetto.dev.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the structured metrics table after tuning (ptt only): \
           what-if traffic, plans patched vs re-optimized, shortcut \
           aborts, per-kind transformation counts, pool sizes and span \
           timings.")

let frontier_csv_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "frontier-csv" ] ~docv:"FILE.csv"
        ~doc:
          "Write the explored (size, cost) points as CSV with a pareto \
           membership column (ptt only).")

let check =
  Arg.(
    value
    & opt ~vopt:(Some `On) (some (enum [ ("on", `On); ("strict", `Strict) ]))
        None
    & info [ "check" ] ~docv:"MODE"
        ~doc:
          "Run the differential invariant checker alongside the search \
           (ptt only): every iteration's §3.3.2 cost bound is compared \
           against what-if re-optimization, every structure's §3.3.1 size \
           against a packing simulation, every configuration against the \
           structural invariants, and realized ΔT/ΔS against the \
           predictions.  Violations are printed, counted in the metrics \
           and emitted as \\$(b,check.violation) trace events.  With \
           \\$(b,--check=strict) any violation makes the exit status \
           non-zero.")

let check_jsonl =
  Arg.(
    value
    & opt (some string) None
    & info [ "check-jsonl" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write the checker's violations and drift histograms as JSON \
           lines (implies nothing about --trace; the two files are \
           independent).")

let cmd =
  let doc = "automatic physical database tuning (relaxation-based)" in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(
      const run $ db $ scale $ schema_file $ queries $ file $ generate
      $ seed $ updates $ tool $ mode $ budget_mb $ iterations $ time_s
      $ jobs $ whatif_budget $ ddl $ do_compress $ explain
      $ analyze
      $ verbose $ log_level $ trace_file $ trace_chrome_file $ metrics
      $ frontier_csv_file $ check $ check_jsonl)

let () = exit (Cmd.eval cmd)
