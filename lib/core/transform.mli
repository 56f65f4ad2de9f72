(** Relaxation transformations (§3.1): replace one or two physical
    structures of a configuration by smaller, generally less efficient
    ones. *)

module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config

type t =
  | Merge_indexes of Index.t * Index.t  (** asymmetric: first stays seekable *)
  | Split_indexes of Index.t * Index.t
  | Prefix_index of Index.t * Index.t  (** original, replacement prefix *)
  | Promote_clustered of Index.t
  | Remove_index of Index.t
  | Merge_views of View.t * View.t
  | Remove_view of View.t

val pp : Format.formatter -> t -> unit

val id : t -> string
(** Stable identity for bookkeeping. *)

val kind : t -> string
(** The constructor name in snake case ([merge_indexes], [remove_view],
    ...): the per-kind key used by metrics and trace events. *)

val adds_structures : t -> bool
(** Does the transformation introduce replacement structures (merged,
    split, prefixed or promoted indexes, a merged view)?  [false] exactly
    for pure removals ([Remove_index], [Remove_view]): those shrink the
    plan space, so the old plan's cost is a sound lower bound on the
    re-optimized cost (see {!Cost_bound.query_lower_bound}). *)

val removed_indexes : Config.t -> t -> Index.t list
(** The indexes [t] takes out of the configuration (for view
    transformations: every index over the removed views).  The list may
    name an input [t] yields back: a merge whose result equals one of its
    parents, such as a view's clustered and unclustered index on one key,
    lists that parent although it stays.  Costing reads
    {!gone_indexes}, or {!changed_indexes}, which drop such survivors. *)

val gone_indexes : Config.t -> t -> Config.t -> Index.t list
(** [gone_indexes c t c']: the indexes of {!removed_indexes}[ c t] that
    [c'] no longer holds.  This is what "removed" means wherever a plan
    is costed: a plan reading only indexes [c'] still holds stays valid
    under [c'], so it is neither bound-walked nor re-optimized. *)

val removed_views : t -> View.t list

val apply_delta :
  estimate_rows:(View.t -> float) ->
  Config.t ->
  t ->
  (Config.t * Index.t list) option
(** Apply to a configuration, returning the new configuration with the
    indexes the transformation adds to it; [None] when no longer
    applicable (stale structures).  View merging promotes the inputs'
    indexes onto the merged view through the column remapping and keeps
    exactly one clustered index per view; [estimate_rows] supplies the
    merged view's cardinality (§3.3.1 reuses the optimizer's cardinality
    module).  An added index may already be in the input configuration
    (a merge that yields one of its parents); {!changed_indexes} reads
    what actually changed. *)

val apply : estimate_rows:(View.t -> float) -> Config.t -> t -> Config.t option
(** [Option.map fst] of {!apply_delta}. *)

val changed_indexes :
  Config.t -> t -> Config.t * Index.t list -> Index.Set.t * Index.Set.t
(** [changed_indexes c t (c', added)], for [Some (c', added)] =
    {!apply_delta}[ c t]: the indexes [t] takes out of [c] and those it
    puts into [c'].  They equal [Index.Set.diff] of the two
    configurations' index sets in each direction, but are found without
    walking either: the first are {!gone_indexes}[ c t c'] (a merge may
    yield one of its parents, which then survives), the second those of
    [added] not in [c]. *)

val enumerate : ?protected:Config.t -> Config.t -> t list
(** Every applicable transformation; structures in [protected] (the base
    configuration) are never transformed. *)
