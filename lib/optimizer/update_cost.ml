(** Maintenance costs of physical structures under update statements
    (§3.6).

    Each update statement is split into a pure select component (costed by
    the regular optimizer) and an "update shell" whose cost is the sum of
    per-structure maintenance charges: an index on the updated table is
    charged when the statement touches any of its columns (always, for
    inserts and deletes); an index over a view is charged whenever the view
    reads the updated table, with a multiplier reflecting delta
    computation. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module P = Cost_params

let view_delta_factor = 2.0
(* maintaining a view index costs about this multiple of a base index: the
   delta rows must be computed by (partially) re-evaluating the view *)

(** Estimated number of rows an update statement touches. *)
let affected_rows env (d : Query.dml) =
  match d with
  | Insert i -> float_of_int i.rows
  | Update { table; ranges; others; _ } | Delete { table; ranges; others } ->
    Float.max 1.0 (Env.rows env table *. Selectivity.local env ~ranges ~others)

(* Touching [k] entries of an index: descend once per modified row (cheap,
   cached upper levels -> charge a fraction of a random page) plus a leaf
   write, capped by the number of leaf pages. *)
let per_index env ~k (i : Index.t) =
  let rel = Index.owner i in
  let rows = Env.rows env rel in
  let leaf =
    Size_model.leaf_pages ~rows ~width_of:(Env.width_of env)
      ~row_width:(Env.row_width env rel) i
  in
  let touched_pages = Float.min k (2.0 *. leaf) in
  (touched_pages *. P.rand_page *. 0.5) +. (k *. P.cpu_tuple)

(** Does the statement force maintenance of this base-table index? *)
let index_affected (d : Query.dml) (i : Index.t) =
  Index.owner i = Query.dml_table d
  &&
  match d with
  | Insert _ | Delete _ -> true
  | Update _ as u ->
    let updated = Query.updated_columns u in
    not (Column_set.is_empty (Column_set.inter updated (Index.columns i)))
    || i.clustered (* clustered leaves are the rows: any update rewrites them *)

(** Does the statement force maintenance of this view? *)
let view_affected (d : Query.dml) (v : View.t) =
  let table = Query.dml_table d in
  List.mem table (View.base_tables v)
  &&
  match d with
  | Insert _ | Delete _ -> true
  | Update _ as u ->
    let updated = Query.updated_columns u in
    let vcols = Query.spjg_columns (View.definition v) in
    not (Column_set.is_empty (Column_set.inter updated vcols))

(** Can changing [indexes] and [views], structures of [config], move the
    shell cost of a statement on [table]?  Only through what
    [shell_cost] charges for that table: its own indexes, the views that
    read it and their indexes. *)
let touches (config : Config.t) ~table ~indexes ~views =
  let reads (v : View.t) = List.mem table (View.base_tables v) in
  List.exists reads views
  || Index.Set.exists
       (fun i ->
         let owner = Index.owner i in
         owner = table
         ||
         match Config.find_view config owner with
         | Some (v, _) -> reads v
         | None -> false)
       indexes

(** Total maintenance cost of the configuration for one update statement:
    the "update shell" cost of §3.6. *)
let shell_cost env (config : Config.t) (d : Query.dml) =
  let k = affected_rows env d in
  let base =
    (* the base-relation write itself: always paid, config-independent *)
    Float.min k (2.0 *. Env.table_pages env (Query.dml_table d))
    *. P.rand_page *. 0.5
    +. (k *. P.cpu_tuple)
  in
  let index_cost =
    List.fold_left
      (fun acc i ->
        if index_affected d i then acc +. per_index env ~k i else acc)
      0.0
      (Config.indexes config)
  in
  let view_cost =
    List.fold_left
      (fun acc v ->
        if view_affected d v then begin
          let vindexes = Config.indexes_on config (View.name v) in
          let per =
            List.fold_left (fun acc i -> acc +. per_index env ~k i) 0.0 vindexes
          in
          acc +. (view_delta_factor *. Float.max (k *. P.cpu_tuple) per)
        end
        else acc)
      0.0 (Config.views config)
  in
  base +. index_cost +. view_cost
