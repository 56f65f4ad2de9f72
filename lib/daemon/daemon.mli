(** The continuous tuning daemon: ingest a statement stream, re-tune the
    sliding window incrementally, deploy guarded DDL deltas, roll back on
    cost drift.

    One {!t} owns a {!Window.t}, a shared what-if interface (its plan
    cache stays warm across re-tunes) and the deployed configuration with
    its durable JSON form.  Every
    [options.retune_every] ingested statements {!ingest} triggers a
    re-tune:

    + {e drift probe} — the deployed configuration is re-costed against
      the current window; realized per-unit-weight cost above the
      deployment-time prediction by more than [options.guard_margin]
      triggers auto-rollback to the previous configuration (restored
      byte-identically from its saved JSON) and skips tuning this cycle;
    + {e re-tune} — warm-started from the deployed configuration
      ([options.warm], the default) through the shared what-if interface,
      or from scratch when cold;
    + {e delta} — the recommendation is diffed against the deployment
      ({!Relax_physical.Ddl.delta}); an empty delta is a {!Steady} cycle
      (the prediction is refreshed to the current window);
    + {e guardrail} — a non-empty delta must pass
      {!Relax_check.Guardrail.validate} (invariants, size oracle, space
      budget, independent cost recompute) before it is deployed;
      failures are {!Rejected} and the deployment stands.

    Every [options.rotate_every] re-tunes the window rotates: faded
    templates are dropped, stale representatives refreshed, and the
    affected qids evicted from the shared what-if cache.

    Deploys, rollbacks and shutdown persist the deployed configuration's
    JSON to [options.state_path] when set, through a fsynced
    [<state_path>.tmp] renamed over it, so a crash mid-write never
    truncates the state file; {!create} warm-loads it back, so a
    restarted daemon resumes from the last deployment. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Ddl = Relax_physical.Ddl

type options = {
  space_budget : float;  (** bytes; [infinity] = unconstrained *)
  mode : Relax_tuner.Tuner.mode;
  retune_every : int;  (** statements between re-tunes *)
  min_statements : int;  (** no re-tune before this many arrivals *)
  window_capacity : int;
  decay : float;
  min_weight : float;  (** rotation drop floor *)
  rotate_every : int;  (** rotate the window every N re-tunes; 0 = never *)
  guard_margin : float;
      (** rollback when realized unit cost exceeds predicted by this
          fraction *)
  tolerances : Relax_check.Checker.tolerances;  (** guardrail oracles *)
  max_iterations : int;  (** relaxation cap per re-tune *)
  jobs : int;
  whatif_budget : int option;  (** frugal costing cap per re-tune *)
  warm : bool;
      (** warm-start re-tunes from the deployment through the shared
          what-if interface; [false] = every re-tune is from scratch *)
  inject_drift : (int * float) option;
      (** fault injection for tests/CI: at re-tune ordinal [n], multiply
          the realized window cost by the factor once *)
  state_path : string option;  (** durable deployed-configuration JSON *)
}

val default_options : space_budget:float -> unit -> options
(** retune_every 32, min_statements 8, window 64 templates at decay 0.98
    with drop floor 0.05, rotation every 4 re-tunes, guard margin 0.25,
    200 iterations per re-tune, sequential, warm. *)

(** What one re-tune cycle did. *)
type action =
  | Steady  (** recommendation equals the deployment; nothing to do *)
  | Deployed of Ddl.delta  (** the delta passed the guardrail *)
  | Rejected of string list  (** guardrail failure reasons; no deploy *)
  | Rolled_back of { drift : float }
      (** realized/predicted unit-cost ratio that fired the trigger *)

type retune = {
  ordinal : int;  (** 1-based re-tune counter *)
  statements_seen : int;  (** arrivals ingested when the cycle ran *)
  window_templates : int;
  window_weight : float;
  predicted_unit_cost : float option;  (** after the cycle *)
  realized_unit_cost : float option;  (** drift probe, when one ran *)
  what_if_calls : int;  (** optimizer calls this cycle spent *)
  cache_hits : int;
  action : action;
  elapsed_s : float;
}

type t

val create : ?recorder:Relax_obs.Recorder.t -> Relax_catalog.Catalog.t ->
  options -> t
(** [recorder] receives the daemon's JSONL events ([daemon.retune],
    [daemon.malformed], [daemon.shutdown]) and counters; a private one is
    created when absent.  When [options.state_path] names a readable
    file, the deployed configuration is loaded from it ({!create} raises
    [Failure] if the file exists but does not parse). *)

val ingest : t -> Query.entry -> retune option
(** Feed one statement; [Some cycle] when this arrival triggered a
    re-tune.  Statements naming tables the catalog does not have are
    counted as malformed and ignored instead of poisoning the window. *)

val ingest_event : t -> Stream.event -> retune option
(** {!ingest} for well-formed events; malformed lines are counted and
    emitted as [daemon.malformed] trace events. *)

val force_retune : t -> retune option
(** Run a re-tune cycle now ([None] on an empty window). *)

val finalize : t -> retune option
(** The SIGTERM path: one final re-tune over the residual window (when
    any statements arrived since the last cycle), persist the deployed
    configuration, emit [daemon.shutdown]. *)

val window_workload : t -> Query.workload
(** The current window exactly as the next re-tune would see it. *)

val deployed : t -> Config.t
val deployed_json : t -> string
(** The deployment's durable JSON — the exact bytes rollback restores. *)

val predicted_unit_cost : t -> float option
val statements_seen : t -> int
val retunes : t -> int
val rollbacks : t -> int
val malformed : t -> int
val history : t -> retune list  (** oldest first *)

val retune_json : retune -> Relax_obs.Json.t
(** The [daemon.retune] trace event body. *)
