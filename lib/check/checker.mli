(** The differential invariant checker.

    Attached to a tuning run through
    {!Relax_tuner.Search.options.on_iteration}, the checker replays every
    search iteration against independent oracles:

    - {b bound soundness}: the §3.3.2 upper bound
      {!Relax_tuner.Cost_bound.query_bound} must dominate the what-if
      re-optimized cost of every affected query, within [bound_epsilon];
    - {b differential apply}: re-applying the iteration's transformation to
      the parent configuration must reproduce the configuration the search
      built;
    - {b structural invariants}: every produced configuration passes
      {!Invariants.check};
    - {b plan validity}: every access in the evaluated node's plans reads
      only indexes and views its configuration holds (exact, no
      optimizer);
    - {b size fidelity}: every structure's §3.3.1 closed-form size agrees
      with {!Size_check}'s packing simulation within [size_tolerance],
      with small relations materialized through the engine;
    - {b penalty consistency}: the realized ΔT of an evaluated node never
      exceeds the predicted ΔT, and realized ΔS matches predicted ΔS,
      within [penalty_epsilon].

    Ratios realized/predicted are accumulated into {!Drift} histograms.
    Violations are emitted as [check.violation] JSONL events and
    [check.violation.<rule>] counters into the {e ambient} recorder of the
    run being checked; the checker's own oracle computations (what-if
    optimizations, access-path calls) run under a private recorder so they
    never pollute the run's metrics or trace. *)

type tolerances = {
  bound_epsilon : float;
      (** relative slack before a cost bound counts as violated *)
  size_tolerance : float;
      (** relative disagreement allowed between the closed-form size and
          the packing simulation *)
  penalty_epsilon : float;  (** relative slack on ΔT / ΔS consistency *)
  size_sample : int;
      (** materialize relations up to this many rows through the engine *)
}

val default_tolerances : tolerances
(** [bound_epsilon = 1e-6], [size_tolerance = 0.02],
    [penalty_epsilon = 1e-6], [size_sample = 4096]. *)

type violation = {
  rule : string;
  iteration : int;
  subject : string;  (** transformation, structure or query involved *)
  detail : string;
  expected : float;  (** the oracle's value ([nan] when not numeric) *)
  actual : float;  (** the search's value ([nan] when not numeric) *)
}

val violation_json : violation -> Relax_obs.Json.t
val pp_violation : Format.formatter -> violation -> unit

type report = {
  iterations_checked : int;
  bounds_checked : int;  (** (transformation, affected query) pairs *)
  sizes_checked : int;  (** distinct structures cross-sized *)
  violations : violation list;  (** in discovery order *)
  bound_drift : Drift.t;  (** re-optimized cost / §3.3.2 bound *)
  cost_drift : Drift.t;  (** realized ΔT / predicted ΔT *)
  size_drift : Drift.t;  (** simulated bytes / closed-form bytes *)
}

type t

val create :
  ?tolerances:tolerances ->
  Relax_catalog.Catalog.t ->
  workload:Relax_sql.Query.workload ->
  protected:Relax_physical.Config.t ->
  unit ->
  t

val bound_ok : tolerances -> bound:float -> actual:float -> bool
(** Whether [actual] respects the upper [bound] within relative
    [bound_epsilon] noise ({!Relax_tuner.Cost_bound.float_leq}); the
    predicate behind the bound-soundness rule, exposed so tests can pin
    its tolerance behaviour. *)

val hook : t -> Relax_tuner.Search.iteration_report -> unit
(** The per-iteration entry point; pass [Some (Checker.hook t)] as
    [on_iteration]. *)

val report : t -> report
val ok : report -> bool
(** No violations. *)

val report_json : report -> Relax_obs.Json.t
val pp_report : Format.formatter -> report -> unit
