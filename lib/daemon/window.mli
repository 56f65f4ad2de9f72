(** The sliding workload window: per-template frequency with exponential
    decay.

    Arriving statements are collapsed to templates by
    {!Relax_workloads.Compress.signature} (identical up to constants);
    each template carries a decayed weight — every logical tick (one
    arrival) multiplies existing weights by the decay factor, so a
    template that stops arriving fades instead of pinning the window
    forever.  Templates get stable daemon-assigned qids ([w000], [w001],
    ...) so the what-if plan cache stays warm across re-tunes.

    Rotation ({!rotate}) is the window's garbage collection: templates
    whose decayed weight fell below the floor are dropped, and templates
    whose latest arrival differs from the pinned representative (same
    shape, new constants) have the representative refreshed.  Both
    invalidate cached per-qid optimizer state, so their qids are queued
    for the daemon to evict from the shared what-if interface
    ({!drain_evictions}). *)

module Query = Relax_sql.Query

type t

val create : ?decay:float -> ?capacity:int -> ?min_weight:float -> unit -> t
(** [decay] (default [0.98]) multiplies every template weight per
    arrival tick; [capacity] (default [64]) bounds live templates — at
    capacity the lightest template is evicted; [min_weight] (default
    [0.05]) is the rotation drop floor. *)

val add : t -> Query.entry -> unit
(** Ingest one statement: advances the logical clock one tick, then
    either reinforces the matching template (decayed weight + the
    entry's weight) or opens a new one. *)

val tick : t -> unit
(** Advance the logical clock without an arrival (decays every weight);
    exposed for decay-property tests. *)

val size : t -> int
(** Live templates. *)

val statements_seen : t -> int
(** Arrivals ingested over the window's lifetime (clock ticks from
    {!tick} excluded). *)

val workload : t -> Query.workload
(** The current window as a weighted workload: one entry per template
    (its pinned representative under its stable qid, decayed weight),
    in template-creation order.  Deterministic. *)

val total_weight : t -> float

val weights : t -> (string * float) list
(** (qid, current decayed weight) per live template, creation order. *)

type rotation = {
  dropped : string list;  (** qids of templates below the weight floor *)
  refreshed : string list;
      (** qids whose representative was replaced by the latest arrival *)
}

val rotate : t -> rotation
(** Drop faded templates, refresh stale representatives; the affected
    qids (plus any earlier capacity evictions) are queued for
    {!drain_evictions}. *)

val drain_evictions : t -> string list
(** Qids whose cached plans must be evicted, accumulated since the last
    drain; clears the queue. *)
