(** The continuous tuning daemon (see the mli for the cycle model).

    Design notes:

    - {e Per-cycle metrics}: each re-tune runs under a private recorder
      installed as ambient, so [what_if_calls]/[cache_hits] are the
      cycle's own spend — the numbers the warm-vs-cold comparison in the
      bench reads.  Daemon-level counters and events go to the daemon's
      recorder, which outlives cycles.
    - {e Byte-identical rollback}: the previous deployment is kept as the
      exact JSON string written at its deploy time, and rollback restores
      both the parsed configuration and that string verbatim — the state
      file after a rollback is byte-for-byte the pre-faulty-deploy one.
    - {e Drift before tuning}: the probe runs against the {e current}
      window under the {e deployed} configuration through the shared
      what-if interface, so a healthy deployment costs one mostly-cached
      sweep.  A fired rollback skips tuning that cycle; the next cycle
      tunes from the restored deployment.
    - {e Shared cache hygiene}: window rotation refreshes representatives
      and drops faded templates; both invalidate per-qid cached plans, so
      the affected qids are evicted from the shared what-if interface
      ({!Relax_optimizer.Whatif.evict}) before the next cycle uses it. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Config_json = Relax_physical.Config_json
module Ddl = Relax_physical.Ddl
module Catalog = Relax_catalog.Catalog
module O = Relax_optimizer
module T = Relax_tuner
module C = Relax_check
module Obs = Relax_obs

type options = {
  space_budget : float;
  mode : T.Tuner.mode;
  retune_every : int;
  min_statements : int;
  window_capacity : int;
  decay : float;
  min_weight : float;
  rotate_every : int;
  guard_margin : float;
  tolerances : C.Checker.tolerances;
  max_iterations : int;
  jobs : int;
  whatif_budget : int option;
  warm : bool;
  inject_drift : (int * float) option;
  state_path : string option;
}

let default_options ~space_budget () =
  {
    space_budget;
    mode = T.Tuner.Indexes_and_views;
    retune_every = 32;
    min_statements = 8;
    window_capacity = 64;
    decay = 0.98;
    min_weight = 0.05;
    rotate_every = 4;
    guard_margin = 0.25;
    tolerances = C.Checker.default_tolerances;
    max_iterations = 200;
    jobs = 1;
    whatif_budget = None;
    warm = true;
    inject_drift = None;
    state_path = None;
  }

type action =
  | Steady
  | Deployed of Ddl.delta
  | Rejected of string list
  | Rolled_back of { drift : float }

type retune = {
  ordinal : int;
  statements_seen : int;
  window_templates : int;
  window_weight : float;
  predicted_unit_cost : float option;
  realized_unit_cost : float option;
  what_if_calls : int;
  cache_hits : int;
  action : action;
  elapsed_s : float;
}

(* the previous deployment, exactly as deployed: parsed form, durable
   JSON bytes, and the unit-cost prediction active at its deploy time *)
type deployment = {
  dep_config : Config.t;
  dep_json : string;
  dep_predicted : float option;
}

type t = {
  catalog : Catalog.t;
  opts : options;
  window : Window.t;
  whatif : O.Whatif.t;
  recorder : Obs.Recorder.t;
  mutable deployed : Config.t;
  mutable deployed_json : string;
  mutable predicted_unit : float option;
  mutable prev : deployment option;
  mutable arrivals : int;
  mutable malformed_count : int;
  mutable retune_count : int;
  mutable rollback_count : int;
  mutable since_retune : int;
  mutable past : retune list;  (** newest first *)
}

let bump t name = Obs.Metrics.count (Obs.Recorder.metrics t.recorder) name 1
let emit t json = Obs.Recorder.emit t.recorder (fun () -> json)

(* Crash-safe: write a sibling [<path>.tmp], fsync it and rename it over
   [path], so a crash mid-write leaves the previous state file whole.  A
   leftover [.tmp] is never read; the next persist overwrites it. *)
let persist t =
  match t.opts.state_path with
  | None -> ()
  | Some path ->
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc t.deployed_json;
        Out_channel.output_char oc '\n';
        Out_channel.flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path

(* A state file written for another catalog (an unknown table or
   column) is refused here with the guardrail's pre-deploy check, not at
   the first retune that costs it. *)
let load_state catalog path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
    let trimmed = String.trim contents in
    let fail msg =
      failwith (Printf.sprintf "daemon: state file %s: %s" path msg)
    in
    if trimmed = "" then None
    else
      match Config_json.of_string trimmed with
      | Error msg -> fail msg
      | Ok cfg -> (
        match C.Invariants.check catalog cfg with
        | [] -> Some (cfg, trimmed)
        | violations ->
          fail
            (String.concat "; "
               (List.map (Fmt.str "%a" C.Invariants.pp_violation) violations))))

let create ?recorder catalog (opts : options) =
  let recorder =
    match recorder with Some r -> r | None -> Obs.Recorder.create ()
  in
  let deployed, deployed_json =
    match Option.map (load_state catalog) opts.state_path with
    | Some (Some (cfg, json)) -> (cfg, json)
    | _ -> (Config.empty, Config_json.to_string Config.empty)
  in
  {
    catalog;
    opts;
    window =
      Window.create ~decay:opts.decay ~capacity:opts.window_capacity
        ~min_weight:opts.min_weight ();
    whatif = O.Whatif.create catalog;
    recorder;
    deployed;
    deployed_json;
    predicted_unit = None;
    prev = None;
    arrivals = 0;
    malformed_count = 0;
    retune_count = 0;
    rollback_count = 0;
    since_retune = 0;
    past = [];
  }

let action_name = function
  | Steady -> "steady"
  | Deployed _ -> "deploy"
  | Rejected _ -> "reject"
  | Rolled_back _ -> "rollback"

let retune_json (r : retune) : Obs.Json.t =
  let opt_float = function
    | None -> Obs.Json.Null
    | Some f -> Obs.Json.Float f
  in
  let base =
    [
      ("event", Obs.Json.String "daemon.retune");
      ("ordinal", Obs.Json.Int r.ordinal);
      ("statements", Obs.Json.Int r.statements_seen);
      ("templates", Obs.Json.Int r.window_templates);
      ("window_weight", Obs.Json.Float r.window_weight);
      ("action", Obs.Json.String (action_name r.action));
      ("predicted_unit_cost", opt_float r.predicted_unit_cost);
      ("realized_unit_cost", opt_float r.realized_unit_cost);
      ("what_if_calls", Obs.Json.Int r.what_if_calls);
      ("cache_hits", Obs.Json.Int r.cache_hits);
      ("elapsed_s", Obs.Json.Float r.elapsed_s);
    ]
  in
  let extra =
    match r.action with
    | Steady -> []
    | Deployed delta ->
      [
        ("ddl_statements", Obs.Json.Int (Ddl.delta_cardinal delta));
        ("ddl", Obs.Json.String (Ddl.delta_to_string delta));
      ]
    | Rejected reasons ->
      [
        ( "reasons",
          Obs.Json.List (List.map (fun s -> Obs.Json.String s) reasons) );
      ]
    | Rolled_back { drift } -> [ ("drift", Obs.Json.Float drift) ]
  in
  Obs.Json.Obj (base @ extra)

(* one re-tune cycle's decision, run under the per-cycle recorder *)
let step t ordinal workload total_w =
  let unit c = if total_w > 0.0 then Some (c /. total_w) else None in
  (* 1. drift probe against the deployed configuration *)
  let realized =
    match t.predicted_unit with
    | None -> None
    | Some _ when total_w <= 0.0 -> None
    | Some _ ->
      let c = O.Whatif.workload_cost t.whatif t.deployed workload /. total_w in
      let c =
        match t.opts.inject_drift with
        | Some (at, factor) when at = ordinal -> c *. factor
        | _ -> c
      in
      Some c
  in
  let drifted =
    match (t.predicted_unit, realized) with
    | Some predicted, Some realized
      when Option.is_some t.prev
           && C.Guardrail.drift_exceeded ~margin:t.opts.guard_margin
                ~predicted ~realized ->
      Some (predicted, realized)
    | _ -> None
  in
  match drifted with
  | Some (predicted, realized_cost) ->
    (* 2a. auto-rollback: restore the previous deployment byte-identically
       and skip tuning this cycle *)
    let prev = Option.get t.prev in
    t.deployed <- prev.dep_config;
    t.deployed_json <- prev.dep_json;
    t.predicted_unit <- prev.dep_predicted;
    t.prev <- None;
    t.rollback_count <- t.rollback_count + 1;
    persist t;
    ( Rolled_back
        { drift = C.Guardrail.drift_ratio ~predicted ~realized:realized_cost },
      realized )
  | None ->
    (* 2b. re-tune, warm-started from the deployment when enabled *)
    let warm_start = t.opts.warm && not (Config.is_empty t.deployed) in
    let topts =
      {
        (T.Tuner.default_options ~mode:t.opts.mode
           ~space_budget:t.opts.space_budget ())
        with
        max_iterations = t.opts.max_iterations;
        jobs = t.opts.jobs;
        whatif_budget = t.opts.whatif_budget;
        initial_config = (if warm_start then Some t.deployed else None);
        whatif = (if t.opts.warm then Some t.whatif else None);
      }
    in
    let r = T.Tuner.tune t.catalog workload topts in
    let delta = Ddl.delta ~deployed:t.deployed ~target:r.recommended in
    if Ddl.delta_is_empty delta then begin
      (* the deployment is already the recommendation; refresh the
         prediction to the current window so drift tracks it *)
      t.predicted_unit <- unit r.recommended_cost;
      (Steady, realized)
    end
    else begin
      (* 3. guardrail: the delta must survive the oracles *)
      let verdict =
        C.Guardrail.validate ~tolerances:t.opts.tolerances t.catalog ~workload
          ~space_budget:t.opts.space_budget ~claimed_cost:r.recommended_cost
          r.recommended
      in
      if not verdict.C.Guardrail.passed then
        (Rejected verdict.C.Guardrail.reasons, realized)
      else begin
        t.prev <-
          Some
            {
              dep_config = t.deployed;
              dep_json = t.deployed_json;
              dep_predicted = t.predicted_unit;
            };
        t.deployed <- r.recommended;
        t.deployed_json <- Config_json.to_string r.recommended;
        t.predicted_unit <- unit r.recommended_cost;
        persist t;
        (Deployed delta, realized)
      end
    end

let retune t =
  t.retune_count <- t.retune_count + 1;
  t.since_retune <- 0;
  let ordinal = t.retune_count in
  let t0 = Obs.Clock.now () in
  let workload = Window.workload t.window in
  let total_w = Window.total_weight t.window in
  (* per-cycle recorder: what-if traffic of this cycle only *)
  let cycle = Obs.Recorder.create () in
  let action, realized =
    Obs.Recorder.with_ambient cycle (fun () -> step t ordinal workload total_w)
  in
  let snap = Obs.Recorder.snapshot cycle in
  (* window rotation + shared-cache eviction *)
  if t.opts.rotate_every > 0 && ordinal mod t.opts.rotate_every = 0 then begin
    let rot = Window.rotate t.window in
    if rot.Window.dropped <> [] || rot.Window.refreshed <> [] then
      bump t "daemon.rotate"
  end;
  (match Window.drain_evictions t.window with
  | [] -> ()
  | doomed -> O.Whatif.evict t.whatif ~keep:(fun q -> not (List.mem q doomed)));
  let r =
    {
      ordinal;
      statements_seen = t.arrivals;
      window_templates = List.length workload;
      window_weight = total_w;
      predicted_unit_cost = t.predicted_unit;
      realized_unit_cost = realized;
      what_if_calls = snap.Obs.Metrics.what_if_calls;
      cache_hits = snap.Obs.Metrics.cache_hits;
      action;
      elapsed_s = Obs.Clock.now () -. t0;
    }
  in
  t.past <- r :: t.past;
  bump t "daemon.retune";
  bump t ("daemon." ^ action_name action);
  Obs.Metrics.observe
    (Obs.Recorder.metrics t.recorder)
    "daemon.retune_latency" r.elapsed_s;
  emit t (retune_json r);
  r

let force_retune t = if Window.size t.window = 0 then None else Some (retune t)

let record_malformed t ~line ~reason =
  t.malformed_count <- t.malformed_count + 1;
  bump t "daemon.malformed";
  emit t
    (Obs.Json.Obj
       [
         ("event", Obs.Json.String "daemon.malformed");
         ("reason", Obs.Json.String reason);
         ("line", Obs.Json.String line);
       ]);
  None

let ingest t (e : Query.entry) =
  (* a parse-clean statement can still name tables or columns this
     database does not have; a long-running service counts that as
     malformed input instead of letting the re-tune die on it *)
  match Catalog.unknown_names t.catalog e.stmt with
  | _ :: _ as unknown ->
    record_malformed t
      ~line:(Relax_sql.Pretty.statement_to_string e.stmt)
      ~reason:("unknown " ^ String.concat ", " unknown)
  | [] ->
    t.arrivals <- t.arrivals + 1;
    t.since_retune <- t.since_retune + 1;
    Window.add t.window e;
    bump t "daemon.statements";
    if
      t.arrivals >= t.opts.min_statements
      && t.since_retune >= t.opts.retune_every
    then force_retune t
    else None

let ingest_event t = function
  | Stream.Entry e -> ingest t e
  | Stream.Malformed { line; reason } -> record_malformed t ~line ~reason

let finalize t =
  let final = if t.since_retune > 0 then force_retune t else None in
  persist t;
  bump t "daemon.shutdown";
  emit t
    (Obs.Json.Obj
       [
         ("event", Obs.Json.String "daemon.shutdown");
         ("statements", Obs.Json.Int t.arrivals);
         ("retunes", Obs.Json.Int t.retune_count);
         ("rollbacks", Obs.Json.Int t.rollback_count);
         ("malformed", Obs.Json.Int t.malformed_count);
         ("deployed_fingerprint", Obs.Json.String (Config.fingerprint t.deployed));
       ]);
  final

let window_workload t = Window.workload t.window
let deployed t = t.deployed
let deployed_json t = t.deployed_json
let predicted_unit_cost t = t.predicted_unit
let statements_seen t = t.arrivals
let retunes t = t.retune_count
let rollbacks t = t.rollback_count
let malformed t = t.malformed_count
let history t = List.rev t.past
