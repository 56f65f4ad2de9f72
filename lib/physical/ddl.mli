(** DDL rendering of physical designs: the CREATE INDEX /
    CREATE MATERIALIZED VIEW script a DBA would deploy.  Suffix columns
    render as [INCLUDE (...)]; clustered indexes carry [CLUSTERED]. *)

val pp_index : Format.formatter -> Index.t -> unit
val pp_view : Format.formatter -> View.t -> unit

val pp_config : Format.formatter -> Config.t -> unit
(** The full deployment script: views first, then indexes. *)

val to_string : Config.t -> string

val pp_drop : Format.formatter -> Config.t -> unit
(** The tear-down script. *)

(** The DDL difference between a deployed configuration and a target one:
    what a continuous tuner actually ships on each re-tune. *)
type delta = {
  create_views : View.t list;
  create_indexes : Index.t list;
  drop_indexes : Index.t list;
  drop_views : View.t list;
}

val delta : deployed:Config.t -> target:Config.t -> delta
val delta_is_empty : delta -> bool

val delta_cardinal : delta -> int
(** Number of DDL statements the delta would execute. *)

val pp_delta : Format.formatter -> delta -> unit
(** Executable top to bottom: created views before their indexes, dropped
    indexes before their views.  An index has one name in every script
    (a readable prefix plus a digest of {!Index.name}), so a drop names
    exactly what an earlier script created. *)

val delta_to_string : delta -> string
