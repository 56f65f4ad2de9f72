(** A fixed pool of worker domains over a shared task queue.

    The search uses it for the two hot loops of the relaxation: scoring
    candidate transformations and re-optimizing the plans a relaxation
    affected.  Both are independent per-item computations, so the only
    contract that matters is {!map_array}'s: results come back in input
    order and an exception raised by [f] is re-raised in the caller (the
    one with the smallest input index, for determinism).  Parallelism is
    a pure speedup, never a behaviour change: at [jobs = 1] no domains
    are spawned and [map_array] degenerates to [Array.map].

    Workers report into the ambient {!Relax_obs} recorder when one is
    installed: per-task queue-wait and run-time latency histograms
    ([pool.task.wait_s] / [pool.task.run_s]), a [pool.queue_depth]
    counter track, and a [pool-workerN] thread name for the Chrome trace
    export's domain→tid mapping.  All of it no-ops without a recorder,
    and none of it changes task order or results. *)

type t

val create : jobs:int -> t
(** Spawn [jobs] worker domains ([jobs <= 1] spawns none: every
    [map_array] then runs sequentially in the caller).  An explicit request is
    honoured verbatim — even beyond
    [Domain.recommended_domain_count ()], in which case the
    [pool.oversubscribed] / [pool.oversubscribed_by] warning counters
    are recorded instead of silently clamping.  The pool is fixed-size;
    call {!shutdown} when done. *)

val jobs : t -> int
(** The parallelism degree the pool was created with (at least 1). *)

val default_jobs : unit -> int
(** The [RELAX_JOBS] environment variable when set to a positive
    integer (respected uncapped), otherwise
    [Domain.recommended_domain_count ()] capped at 8.  The cap applies
    only to this hardware-derived default, never to an explicit
    request. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [map_array t f a] equals
    [Array.map f a] for pure [f], whatever the parallelism.  Tasks run on
    the worker domains while the caller blocks; when several tasks raise,
    the exception of the smallest index is re-raised after the whole
    batch has drained (so the pool is reusable afterwards).  Only the
    domain that created the pool may call [map_array]; worker tasks must
    not. *)

(** Lifetime counters, for {!Relax_obs.Metrics} named counters. *)
type stats = {
  pool_jobs : int;
  tasks : int;  (** tasks executed across all [map_array] calls *)
  batches : int;  (** [map_array] calls of two or more tasks *)
  busy_s : float array;  (** per-worker-domain busy seconds *)
}

val stats : t -> stats

val shutdown : t -> unit
(** Drain and join the worker domains.  Idempotent; [map_array] after
    [shutdown] runs sequentially. *)
