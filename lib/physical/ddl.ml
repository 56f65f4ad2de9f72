(** DDL rendering of physical designs: turn a configuration into the
    CREATE INDEX / CREATE MATERIALIZED VIEW script a DBA would deploy.

    Syntax follows the common SQL Server/PostgreSQL hybrid: suffix columns
    render as [INCLUDE (...)]; clustered indexes carry the [CLUSTERED]
    keyword; view indexes are created against the view name. *)

open Relax_sql.Types

(* deterministic, human-readable object names *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

(* One name per index, derived from its content alone: a readable
   prefix (kind, owner, key columns) and a digest of [Index.name], which
   tells apart the indexes the prefix conflates (different suffix
   columns, or names [sanitize] maps to the same string).  Every script
   names an index the same way, so a later delta drops exactly what an
   earlier one created. *)
let index_ddl_name (i : Index.t) =
  Fmt.str "%s_%s_%s_%s"
    (if i.clustered then "cix" else "ix")
    (sanitize (Index.owner i))
    (sanitize (String.concat "_" (List.map (fun (c : column) -> c.col) i.keys)))
    (String.sub (Digest.to_hex (Digest.string (Index.name i))) 0 8)

let pp_index ppf (i : Index.t) =
  let keys =
    String.concat ", " (List.map (fun (c : column) -> c.col) i.keys)
  in
  let suffix = Column_set.elements i.suffix in
  Fmt.pf ppf "CREATE %sINDEX %s ON %s (%s)%s;"
    (if i.clustered then "CLUSTERED " else "")
    (index_ddl_name i) (Index.owner i) keys
    (if suffix = [] then ""
     else
       Fmt.str " INCLUDE (%s)"
         (String.concat ", " (List.map (fun (c : column) -> c.col) suffix)))

let pp_view ppf (v : View.t) =
  Fmt.pf ppf "@[<v>CREATE MATERIALIZED VIEW %s AS@,  @[%a@];@]" (View.name v)
    Relax_sql.Pretty.pp_spjg (View.definition v)

(** The full deployment script for a configuration: views first (their
    indexes depend on them), then all indexes. *)
let pp_config ppf (config : Config.t) =
  Fmt.pf ppf "@[<v>";
  List.iter (fun v -> Fmt.pf ppf "%a@,@," pp_view v) (Config.views config);
  List.iter (fun i -> Fmt.pf ppf "%a@," pp_index i) (Config.indexes config);
  Fmt.pf ppf "@]"

let to_string config = Fmt.str "%a" pp_config config

(* --- incremental deployment deltas -------------------------------------- *)

(** The DDL difference between a deployed configuration and a target one:
    what a continuous tuner actually ships.  Creates are ordered views
    before their indexes, drops indexes before their views, so the script
    is executable top to bottom. *)
type delta = {
  create_views : View.t list;
  create_indexes : Index.t list;
  drop_indexes : Index.t list;
  drop_views : View.t list;
}

let delta ~deployed ~target =
  let names vs = List.map View.name vs in
  let deployed_views = Config.views deployed
  and target_views = Config.views target in
  let deployed_names = names deployed_views
  and target_names = names target_views in
  {
    create_views =
      List.filter
        (fun v -> not (List.mem (View.name v) deployed_names))
        target_views;
    create_indexes =
      Index.Set.elements
        (Index.Set.diff (Config.index_set target) (Config.index_set deployed));
    drop_indexes =
      Index.Set.elements
        (Index.Set.diff (Config.index_set deployed) (Config.index_set target));
    drop_views =
      List.filter
        (fun v -> not (List.mem (View.name v) target_names))
        deployed_views;
  }

let delta_is_empty d =
  d.create_views = [] && d.create_indexes = [] && d.drop_indexes = []
  && d.drop_views = []

let delta_cardinal d =
  List.length d.create_views + List.length d.create_indexes
  + List.length d.drop_indexes + List.length d.drop_views

let pp_delta ppf d =
  Fmt.pf ppf "@[<v>";
  List.iter (fun v -> Fmt.pf ppf "%a@," pp_view v) d.create_views;
  List.iter (fun i -> Fmt.pf ppf "%a@," pp_index i) d.create_indexes;
  List.iter
    (fun i ->
      Fmt.pf ppf "DROP INDEX %s ON %s;@," (index_ddl_name i) (Index.owner i))
    d.drop_indexes;
  List.iter
    (fun v -> Fmt.pf ppf "DROP MATERIALIZED VIEW %s;@," (View.name v))
    d.drop_views;
  Fmt.pf ppf "@]"

let delta_to_string d = Fmt.str "%a" pp_delta d

(** The tear-down script (inverse order). *)
let pp_drop ppf (config : Config.t) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun i -> Fmt.pf ppf "DROP INDEX %s;@," (index_ddl_name i))
    (Config.indexes config);
  List.iter
    (fun v -> Fmt.pf ppf "DROP MATERIALIZED VIEW %s;@," (View.name v))
    (Config.views config);
  Fmt.pf ppf "@]"
