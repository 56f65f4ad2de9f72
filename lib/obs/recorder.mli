(** The per-tuning-run observability context: one {!Metrics.t}, an
    optional trace sink, and a hierarchical {!Span_tree}.

    A recorder is installed as the {e ambient} recorder for the dynamic
    extent of a tuning run ({!with_ambient}); instrumentation points deep
    inside the optimizer reach it through {!Probe} without any parameter
    threading, and everything no-ops when no recorder is installed.

    Timings come from {!Clock} (the repository's single wall-clock
    source); span durations are clamped to be non-negative so aggregates
    stay monotone even if the wall clock steps.

    A recorder is safe to share across domains: spans, trace emission,
    profiling state and the metrics accumulator are each internally
    locked, and the ambient slot is atomic, so probes firing from the
    parallel search's worker domains aggregate into the same recorder as
    the main loop.  Each domain gets its own span stack, so nesting and
    self-time stay well-defined under parallelism.

    With [profile:true] the recorder additionally retains every
    completed span and a log of counter samples (what-if calls and
    cache hits, GC heap words, pool queue depth, per-span latency) for
    the {!Chrome} trace-event export; plain runs skip that retention
    entirely. *)

type t

val create : ?sink:Trace.sink -> ?profile:bool -> unit -> t
(** [profile] (default [false]) turns on span/counter retention for
    {!profile_spans}, {!counters_log} and the Chrome export. *)

val metrics : t -> Metrics.t
val profiling : t -> bool

val created_at : t -> float
(** {!Clock.now} at creation; the Chrome export's time origin. *)

val emit : t -> (unit -> Json.t) -> unit
(** Emit one trace event; the thunk is only forced when a sink is
    attached. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Time [f] as a span on the calling domain's stack: aggregates
    per-name call counts, total and self wall-clock and maximum nesting
    depth, feeds the per-name latency histogram, and (when profiling)
    retains the completed span and samples the GC.  Exception-safe. *)

val span_stats : t -> Metrics.span_stat list
val snapshot : t -> Metrics.snapshot

val counter : t -> string -> float -> unit
(** Record one sample of a single-series counter track (profiling mode
    only; no-op otherwise). *)

val sample_gc : t -> unit
(** Sample [Gc.quick_stat] into the [gc.*] counter tracks (profiling
    mode only).  Called automatically at span boundaries. *)

val thread_name : t -> string -> unit
(** Name the calling domain's thread track in the Chrome export (worker
    domains register themselves as [pool-workerN]). *)

val profile_spans : t -> Span_tree.span list
(** Completed spans in open order; [[]] unless profiling. *)

val counters_log : t -> (float * string * (string * float) list) list
(** Counter samples in chronological order; [[]] unless profiling. *)

val thread_names : t -> (int * string) list
(** Registered domain-id/name pairs, sorted by domain id. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient recorder for the extent of the call
    (restoring the previous one on exit, exception-safe). *)

val ambient : unit -> t option

val inherit_or_create : ?sink:Trace.sink -> ?profile:bool -> unit -> t
(** The ambient recorder when one is installed, else a fresh recorder
    (with [sink]/[profile] when given).  This is the sanctioned way for
    an entry-point layer to adopt a caller's recorder: reading the
    ambient slot directly outside [lib/obs] is flagged by relax-lint
    rule L4. *)
