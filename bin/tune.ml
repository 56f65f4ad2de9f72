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
    v}

    Exit codes: 0 after a tune; 1 when [--check=strict] finds a violation;
    2 on an input file that cannot be used (unreadable, a malformed
    CREATE TABLE or SQL script, or a statement naming a table or column
    the catalog lacks) or an output file that cannot be written; 124 on a
    malformed or out-of-range flag value, a [--queries] number outside
    1–22 included, or [--queries] on a database other than TPC-H;
    128+N on signal N (SIGINT, SIGTERM) after closing the trace. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module T = Relax_tuner
module B = Relax_baseline
module W = Relax_workloads
open Cmdliner

let run load tool mode budget iterations time_s jobs whatif_budget ddl
    do_compress explain analyze verbose log_level trace_file
    trace_chrome_file metrics frontier_csv_file check check_jsonl =
  Cli.setup_logs ~verbose log_level;
  (* a SIGINT/SIGTERM mid-run unwinds through the [Fun.protect] around
     the tuner, closing the trace sink before the process exits 128+N *)
  Relax_obs.Shutdown.install ();
  Relax_obs.Shutdown.protect @@ fun () ->
  let catalog, workload = load () in
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
  match tool with
  | `Ptt ->
    let check =
      if check = None && check_jsonl <> None then Some `On else check
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
        jobs;
        whatif_budget;
        on_iteration =
          Option.map (fun c -> Relax_check.Checker.hook c) checker;
      }
    in
    let open_out_checked ~what path f =
      try f path
      with Sys_error msg -> Cli.fail "cannot write %s %s: %s" what path msg
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
      B.Ctt.default_options ~with_views:(mode = T.Tuner.Indexes_and_views)
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

let queries =
  let parse s =
    match
      let nums = List.map int_of_string (String.split_on_char ',' s) in
      ignore (W.Tpch.workload_subset nums);
      nums
    with
    | nums -> Ok (Some nums)
    | exception (Failure _ | Invalid_argument _) ->
      Error
        (`Msg
          ("expected a comma-separated list of query numbers in 1-22, got " ^ s))
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
    value & opt (Cli.int_from 0) 0
    & info [ "generate" ] ~docv:"N" ~doc:"Generate N random statements.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let updates =
  Arg.(
    value
    & opt
        (Cli.float_where ~expected:"a fraction in [0, 1]" (fun f ->
             f >= 0.0 && f <= 1.0))
        0.0
    & info [ "updates" ] ~docv:"F"
        ~doc:"Fraction of generated statements that are updates.")

(* The catalog and workload, loaded when called: the --file script, else
   the TPC-H queries, else a generated workload.  --queries without
   --file on any other database is a command-line error (exit 124). *)
let inputs =
  let pick (src : Cli.source) file queries generate seed updates =
    let tpch = src.db = Cli.Tpch && src.schema_file = None in
    let load default = `Ok (fun () -> Cli.load ?file src default) in
    match queries with
    | Some _ when file = None && not tpch ->
      `Error
        (true, "--queries only applies to --db tpch (the 22 fixed queries)")
    | Some nums -> load (fun _ -> W.Tpch.workload_subset nums)
    | None when tpch && generate = 0 -> load (fun _ -> W.Tpch.workload ())
    | None ->
      let n = if generate = 0 then 10 else generate in
      let profile =
        { W.Generator.default_profile with update_fraction = updates }
      in
      load (fun schema -> W.Generator.workload ~seed ~profile schema ~n)
  in
  Term.(
    ret (const pick $ Cli.source $ file $ queries $ generate $ seed $ updates))

let tool =
  Arg.(
    value
    & opt (enum [ ("ptt", `Ptt); ("ctt", `Ctt) ]) `Ptt
    & info [ "tool" ] ~docv:"TOOL"
        ~doc:"Tuner: ptt (relaxation-based) or ctt (bottom-up baseline).")

let time_s =
  Arg.(
    value
    & opt (some Cli.positive) None
    & info [ "time" ] ~docv:"SECONDS" ~doc:"Wall-clock tuning budget (ptt).")

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
           $(b,delta_cost)/$(b,delta_space), penalty, realized \
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
           and emitted as $(b,check.violation) trace events.  With \
           $(b,--check=strict) any violation makes the exit status \
           non-zero.")

let check_jsonl =
  Arg.(
    value
    & opt (some string) None
    & info [ "check-jsonl" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write the checker's violations and drift histograms as JSON \
           lines.  Implies $(b,--check=on) when $(b,--check) is absent; \
           implies nothing about --trace (the two files are independent).")

let cmd =
  let doc = "automatic physical database tuning (relaxation-based)" in
  let iterations =
    Cli.iterations ~default:400 ~doc:"Relaxation iteration cap (ptt)."
  in
  let jobs =
    Cli.jobs ~default:Relax_parallel.Pool.default_jobs
      ~doc:
        "Domains for the parallel search (ptt only): the caller plus N-1 \
         worker domains; 1 = sequential.  Defaults to $(b,RELAX_JOBS) or \
         the machine's domain count (capped at 8).  The recommendation is \
         identical whatever the value."
  in
  let whatif_budget =
    Cli.whatif_budget
      ~doc:
        "Frugal costing (ptt only): cap the what-if optimizer calls the \
         relaxation ranking may spend; candidate decisions come from \
         cost-bound intervals and the budget is spent only on candidates \
         the bounds cannot decide.  Absent = unbounded: every plan a \
         relaxation touches is re-optimized.  0 = bounds only; a negative N \
         is an error.  See the whatif.bound_accepts, whatif.bound_rejects \
         and whatif.budget_spent counters in --metrics."
  in
  let verbose =
    Cli.verbose ~doc:"Enable debug logging (same as --log-level debug)."
  in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(
      const run $ inputs $ tool $ Cli.mode $ Cli.budget $ iterations $ time_s
      $ jobs $ whatif_budget $ ddl $ do_compress $ explain $ analyze $ verbose
      $ log_level $ trace_file $ trace_chrome_file $ metrics
      $ frontier_csv_file $ check $ check_jsonl)

let () = exit (Cmd.eval cmd)
