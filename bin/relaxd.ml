(** [relaxd] — the continuous tuning daemon.

    Reads a JSONL statement stream ([{"qid":...,"sql":...,"weight":...}]
    per line) from stdin or a replay file, maintains a decayed sliding
    workload window, re-tunes incrementally warm-started from the
    deployed configuration, and deploys guarded DDL deltas — rolling back
    automatically when realized window cost drifts past the prediction.

    Examples:
    {v
    tail -f statements.jsonl | relaxd --db tpch --budget-mb 40 --jsonl daemon.jsonl
    relaxd --db bench --replay stream.jsonl --retune-every 16 --state deployed.json
    relaxd --db tpch --replay stream.jsonl --inject-drift 3:10 --guard-margin 0.2
    v}

    Exit codes: 0 on end-of-stream or SIGTERM/SIGINT after a clean final
    re-tune and flush; 2 on usage errors (unreadable replay/schema file,
    bad state file); 124 on a malformed or out-of-range flag value. *)

module D = Relax_daemon
module W = Relax_workloads
module Config = Relax_physical.Config
module Ddl = Relax_physical.Ddl
module T = Relax_tuner
module Obs = Relax_obs
open Cmdliner

type db = Tpch | Ds1 | Bench

let schema_of_db ~scale = function
  | Tpch -> W.Bench_db.tpch_schema ~scale ()
  | Ds1 -> W.Star.schema ~scale ()
  | Bench -> W.Bench_db.schema ~scale ()

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Fmt.epr "relaxd: cannot read %s: %s@." path msg;
    exit 2

let run db scale schema_file replay budget_mb retune_every min_statements
    window decay min_weight rotate_every guard_margin iterations jobs
    whatif_budget cold mode inject_drift state_path jsonl_path verbose
    summary =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  Obs.Shutdown.install ();
  let catalog =
    match schema_file with
    | None -> (schema_of_db ~scale db).W.Generator.catalog
    | Some path ->
      let catalog, _joins = Relax_catalog.Schema_parser.parse (read_file path) in
      catalog
  in
  let budget =
    match budget_mb with
    | None -> infinity
    | Some m -> m *. 1024.0 *. 1024.0
  in
  let opts =
    {
      (D.Daemon.default_options ~space_budget:budget ()) with
      mode =
        (if mode = "indexes" then T.Tuner.Indexes_only
         else T.Tuner.Indexes_and_views);
      retune_every;
      min_statements;
      window_capacity = window;
      decay;
      min_weight;
      rotate_every;
      guard_margin;
      max_iterations = iterations;
      jobs = Option.value jobs ~default:1;
      whatif_budget;
      warm = not cold;
      inject_drift;
      state_path;
    }
  in
  let sink =
    Option.map
      (fun path ->
        try Obs.Trace.file path
        with Sys_error msg ->
          Fmt.epr "relaxd: cannot write %s: %s@." path msg;
          exit 2)
      jsonl_path
  in
  let recorder = Obs.Recorder.create ?sink () in
  let daemon =
    try D.Daemon.create ~recorder catalog opts
    with Failure msg ->
      Fmt.epr "relaxd: %s@." msg;
      exit 2
  in
  let ic =
    match replay with
    | None -> stdin
    | Some path -> (
      try open_in path
      with Sys_error msg ->
        Fmt.epr "relaxd: cannot read %s: %s@." path msg;
        exit 2)
  in
  let report (r : D.Daemon.retune) =
    if summary then
      Fmt.pr "retune %d: %s (%d templates, %d what-if calls, %.2fs)@."
        r.ordinal
        (match r.action with
        | D.Daemon.Steady -> "steady"
        | D.Daemon.Deployed d ->
          Fmt.str "deployed %d DDL statement(s)" (Ddl.delta_cardinal d)
        | D.Daemon.Rejected reasons ->
          Fmt.str "rejected (%s)" (String.concat "; " reasons)
        | D.Daemon.Rolled_back { drift } ->
          Fmt.str "rolled back (drift %.2fx)" drift)
        r.window_templates r.what_if_calls r.elapsed_s
  in
  let finish code =
    Option.iter (fun (r : D.Daemon.retune) -> report r) (D.Daemon.finalize daemon);
    if summary then
      Fmt.pr
        "done: %d statement(s), %d retune(s), %d rollback(s), %d malformed@."
        (D.Daemon.statements_seen daemon)
        (D.Daemon.retunes daemon)
        (D.Daemon.rollbacks daemon)
        (D.Daemon.malformed daemon);
    Option.iter Obs.Trace.close sink;
    if replay <> None then close_in_noerr ic;
    exit code
  in
  match
    Seq.iter
      (fun ev -> Option.iter report (D.Daemon.ingest_event daemon ev))
      (D.Stream.events ic)
  with
  | () -> finish 0
  | exception Obs.Shutdown.Signalled _ ->
    (* graceful shutdown: final re-tune over the residual window, flush
       the JSONL sink, then exit 0 — the clean-service convention *)
    finish 0

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

let non_negative = float_where ~expected:"a number >= 0" (fun f -> f >= 0.0)
let positive = float_where ~expected:"a number > 0" (fun f -> f > 0.0)

let db =
  let parse = function
    | "tpch" -> Ok Tpch
    | "ds1" -> Ok Ds1
    | "bench" -> Ok Bench
    | s -> Error (`Msg ("unknown database: " ^ s))
  in
  let print ppf d =
    Fmt.string ppf
      (match d with Tpch -> "tpch" | Ds1 -> "ds1" | Bench -> "bench")
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

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE.jsonl"
        ~doc:
          "Replay a recorded statement stream instead of reading stdin; \
           the daemon exits cleanly at end-of-file.")

let budget_mb =
  Arg.(
    value
    & opt (some positive) None
    & info [ "budget-mb" ] ~docv:"MB"
        ~doc:"Storage budget in megabytes (absent = unconstrained).")

let retune_every =
  Arg.(
    value & opt (int_from 1) 32
    & info [ "retune-every" ] ~docv:"N"
        ~doc:"Statements between re-tune cycles.")

let min_statements =
  Arg.(
    value & opt (int_from 0) 8
    & info [ "min-statements" ] ~docv:"N"
        ~doc:"No re-tune before this many statements arrived.")

let window =
  Arg.(
    value & opt (int_from 1) 64
    & info [ "window" ] ~docv:"N"
        ~doc:"Window capacity in templates; the lightest is evicted at \
              capacity.")

let decay =
  Arg.(
    value
    & opt
        (float_where ~expected:"a factor in (0, 1]" (fun f ->
             f > 0.0 && f <= 1.0))
        0.98
    & info [ "decay" ] ~docv:"F"
        ~doc:"Per-arrival decay factor on template weights (in (0,1]).")

let min_weight =
  Arg.(
    value & opt non_negative 0.05
    & info [ "min-weight" ] ~docv:"F"
        ~doc:"Rotation drop floor: templates decayed below F are dropped.")

let rotate_every =
  Arg.(
    value & opt (int_from 0) 4
    & info [ "rotate-every" ] ~docv:"N"
        ~doc:"Rotate the window every N re-tunes (0 = never): drop faded \
              templates, refresh stale representatives, evict their \
              cached plans.")

let guard_margin =
  Arg.(
    value & opt non_negative 0.25
    & info [ "guard-margin" ] ~docv:"F"
        ~doc:
          "Auto-rollback when realized window cost exceeds the \
           deployment-time prediction by more than this fraction.")

let iterations =
  Arg.(
    value & opt (int_from 0) 200
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Relaxation iteration cap per re-tune.")

let jobs =
  Arg.(
    value
    & opt (some (int_from 1)) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the parallel search: the caller plus N-1 worker \
           domains; 1 = sequential (default).  The delta sequence is \
           identical whatever the value.")

let whatif_budget =
  Arg.(
    value
    & opt (some (int_from 0)) None
    & info [ "whatif-budget" ] ~docv:"N"
        ~doc:
          "Frugal costing: cap the what-if optimizer calls each re-tune \
           may spend (absent = unbounded; a negative N is an error).")

let cold =
  Arg.(
    value & flag
    & info [ "cold" ]
        ~doc:
          "Tune every cycle from scratch instead of warm-starting from \
           the deployed configuration through the shared what-if cache \
           (for comparison runs; the recommendations are the same, the \
           warm path just spends fewer optimizer calls).")

let mode =
  Arg.(
    value
    & opt (enum [ ("indexes", "indexes"); ("views", "views") ]) "views"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"What to recommend: indexes only, or indexes and views.")

let inject_drift =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; f ] -> (
      match (int_of_string_opt n, float_of_string_opt f) with
      | Some n, Some f when n > 0 && f > 0.0 -> Ok (Some (n, f))
      | _ -> Error (`Msg "expected N:FACTOR with N > 0 and FACTOR > 0"))
    | _ -> Error (`Msg "expected N:FACTOR, e.g. 3:10")
  in
  let print ppf = function
    | None -> Fmt.string ppf "off"
    | Some (n, f) -> Fmt.pf ppf "%d:%g" n f
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "inject-drift" ] ~docv:"N:FACTOR"
        ~doc:
          "Fault injection (tests/CI): at re-tune ordinal N multiply the \
           realized window cost by FACTOR once, to exercise the \
           auto-rollback path deterministically.")

let state_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "state" ] ~docv:"FILE.json"
        ~doc:
          "Persist the deployed configuration's JSON here on every \
           deploy/rollback/shutdown, and load it back on startup.")

let jsonl_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write daemon events as JSON lines: one daemon.retune event \
           per cycle (action, costs, what-if spend, DDL), plus \
           daemon.malformed and daemon.shutdown.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let summary =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:"Print a one-line report per re-tune cycle and a final \
              tally to stdout.")

let cmd =
  let doc = "continuous physical database tuning daemon" in
  Cmd.v
    (Cmd.info "relaxd" ~doc)
    Term.(
      const run $ db $ scale $ schema_file $ replay $ budget_mb
      $ retune_every $ min_statements $ window $ decay $ min_weight
      $ rotate_every $ guard_margin $ iterations $ jobs $ whatif_budget
      $ cold $ mode $ inject_drift $ state_path $ jsonl_path $ verbose
      $ summary)

let () = exit (Cmd.eval cmd)
