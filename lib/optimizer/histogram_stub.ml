(** Tiny constructors for synthetic histograms attached to view columns
    whose true distribution is unknown. *)

module Histogram = Relax_catalog.Histogram

(** A single-bucket uniform histogram over [lo, hi]. *)
let uniform lo hi = Histogram.of_values ~buckets:1 [ lo; hi ]

(** The degenerate [0,1] histogram. *)
let unit_hist = uniform 0.0 1.0
