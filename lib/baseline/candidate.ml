(** Per-query candidate selection for the bottom-up baseline tuner.

    This reproduces the classic AutoAdmin architecture the paper critiques
    (step 1 of its Search Framework summary): candidates are {e guessed from
    the query structure} — columns in equality/range predicates, join
    columns, grouping and ordering columns — rather than derived from
    optimizer requests.  The usual industrial shortcuts are faithfully
    present: key sequences are capped, per-query candidate lists are
    truncated to the top [k] by estimated benefit, and candidate views are
    only built for whole query blocks. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Predicate = Relax_sql.Predicate
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Instrument = Relax_tuner.Instrument

type t =
  | Cand_index of Index.t
  | Cand_view of View.t * float * Index.t list
      (** view, row estimate, indexes over it (clustered first) *)

let pp ppf = function
  | Cand_index i -> Index.pp ppf i
  | Cand_view (v, _, _) -> Fmt.string ppf (View.name v)

let id = function
  | Cand_index i -> Index.name i
  | Cand_view (v, _, _) -> View.name v

let size catalog = function
  | Cand_index i -> Config.index_bytes catalog (Config.of_indexes [ i ]) i
  | Cand_view (v, rows, idxs) ->
    let cfg =
      List.fold_left Config.add_index (Config.add_view Config.empty v ~rows) idxs
    in
    Config.bytes catalog cfg

(** Add a candidate's structures to a configuration. *)
let add_to_config config = function
  | Cand_index i ->
    if
      i.clustered
      && Config.clustered_on config (Index.owner i) <> None
    then config
    else Config.add_index config i
  | Cand_view (v, rows, idxs) ->
    if Config.mem_view config v then config
    else
      List.fold_left Config.add_index (Config.add_view config v ~rows) idxs

let max_key_columns = 3
let max_suffix_columns = 8

(* columns of [q] on table [t], by syntactic role *)
let table_roles (q : Query.spjg) (order_by : (column * order_dir) list) t =
  let on_t c = c.tbl = t in
  let eq_cols, range_cols =
    List.partition Predicate.is_equality
      (List.filter (fun (r : Predicate.range) -> on_t r.rcol) q.ranges)
    |> fun (e, r) ->
    ( List.map (fun (r : Predicate.range) -> r.rcol) e,
      List.map (fun (r : Predicate.range) -> r.rcol) r )
  in
  let join_cols =
    List.concat_map
      (fun (j : Predicate.join) ->
        List.filter on_t [ j.left; j.right ])
      q.joins
  in
  let group_cols = List.filter on_t q.group_by in
  let order_cols = List.filter on_t (List.map fst order_by) in
  let needed = Query.spjg_columns_of_table q t in
  (eq_cols, range_cols, join_cols, group_cols, order_cols, needed)

(** Heuristic index candidates for one query. *)
let index_candidates (sq : Query.select_query) : Index.t list =
  let q = sq.body in
  List.concat_map
    (fun t ->
      let eq, range, join, group, order, needed =
        table_roles q sq.order_by t
      in
      let cap l = List.filteri (fun i _ -> i < max_key_columns) (Instrument.dedup l) in
      let key_sets =
        [
          cap eq;
          cap (eq @ range);
          cap range;
          cap join;
          cap (join @ eq);
          cap group;
          cap order;
          cap (group @ order);
        ]
        |> List.filter (fun ks -> ks <> [])
      in
      (* single-column candidates for every sargable or join column *)
      let singles = List.map (fun c -> [ c ]) (Instrument.dedup (eq @ range @ join)) in
      let all_keys =
        List.sort_uniq compare (key_sets @ singles)
      in
      List.concat_map
        (fun keys ->
          let narrow = Index.make ~keys ~suffix:Column_set.empty () in
          let suffix = Column_set.diff needed (Column_set.of_list keys) in
          if
            Column_set.is_empty suffix
            || Column_set.cardinal suffix > max_suffix_columns
          then [ narrow ]
          else [ narrow; Index.make ~keys ~suffix () ])
        all_keys)
    q.tables

(** Heuristic view candidates for one query: the full block, and (when
    grouped) its SPJ core.  Sub-join views are {e not} proposed — the
    shortcut the paper calls out. *)
let view_candidates env (sq : Query.select_query) : t list =
  let q = sq.body in
  if List.length q.tables < 2 && q.group_by = [] then []
  else begin
    (* instrumentation's view builder without its guard: the SPJ core of
       a single-table grouped query is a single-table ungrouped block *)
    let mk block =
      Option.map
        (fun (v, rows, ci) -> Cand_view (v, rows, [ ci ]))
        (Instrument.materialize_view env block)
    in
    let full = mk q in
    let spj_core =
      if q.group_by = [] then None
      else begin
        let select =
          Column_set.elements (Query.spjg_columns q)
          |> List.map (fun c -> Query.Item_col c)
        in
        mk (Query.make_spjg ~select ~tables:q.tables ~joins:q.joins
              ~ranges:q.ranges ~others:q.others ())
      end
    in
    List.filter_map Fun.id [ full; spj_core ]
  end

(** All candidates for one query (unscored). *)
let for_query env ~with_views (sq : Query.select_query) : t list =
  let idx = List.map (fun i -> Cand_index i) (index_candidates sq) in
  if with_views then idx @ view_candidates env sq else idx
