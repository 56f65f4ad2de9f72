(** Log-bucketed latency histograms with p50/p90/p99 summaries.

    Fixed quarter-octave buckets anchored at 1 µs (128 of them, reaching
    to roughly an hour), so histograms from different runs merge by
    bucket-wise sum and quantiles are exact to within one bucket width
    (±19 %).  The mutable accumulator {!t} is not synchronized — callers
    serialize access ({!Metrics} adds under its own lock); {!snap} takes
    an immutable copy for snapshots and merging. *)

type t
(** A mutable histogram accumulator (caller-synchronized). *)

val create : unit -> t
val add : t -> float -> unit
(** Record one duration in seconds (clamped to be non-negative). *)

type snap
(** An immutable histogram snapshot; mergeable. *)

val snap : t -> snap
val count : snap -> int
val total_s : snap -> float
val max_s : snap -> float
val merge : snap -> snap -> snap

val quantile : snap -> float -> float
(** [quantile s q] for [q] in [0,1]: the upper edge of the bucket
    holding rank [ceil (q * count)], capped at the observed maximum;
    [0.] when empty. *)

(** The reporting view: what [--metrics] and bench JSON consume. *)
type summary = {
  h_count : int;
  h_total_s : float;
  h_max_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
}

val summary : snap -> summary

val to_json : snap -> Json.t
(** [{"count", "total_s", "max_ms", "p50_ms", "p90_ms", "p99_ms"}]. *)

(**/**)

val bucket_of : float -> int
val bound : int -> float
(** Bucket layout, exposed for the unit tests. *)
