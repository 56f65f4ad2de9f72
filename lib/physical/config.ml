(** Physical configurations: a set of indexes plus a set of materialized
    views (each view carrying its estimated row count, supplied by the
    optimizer's cardinality module when the view is created — §3.3.1).

    Configurations are immutable values; the optimizer takes one as input,
    which is the whole "what-if" interface: hypothetical structures are
    simulated simply by being present in the configuration. *)

open Relax_sql.Types
module String_map = Map.Make (String)

type t = {
  indexes : Index.Set.t;
  views : (View.t * float) String_map.t;  (** name -> (view, row estimate) *)
}

let empty = { indexes = Index.Set.empty; views = String_map.empty }

let of_indexes l = { empty with indexes = Index.Set.of_list l }

let indexes t = Index.Set.elements t.indexes

(** The raw index set (for cheap structural diffs). *)
let index_set t = t.indexes
let views t = List.map (fun (_, (v, _)) -> v) (String_map.bindings t.views)

(** Views with their stored row estimates. *)
let views_with_rows t = List.map snd (String_map.bindings t.views)

let mem_index t i = Index.Set.mem i t.indexes
let mem_view t v = String_map.mem (View.name v) t.views

let find_view t name = String_map.find_opt name t.views

let add_index t i = { t with indexes = Index.Set.add i t.indexes }

let add_view t v ~rows =
  { t with views = String_map.add (View.name v) (v, rows) t.views }

let remove_index t i = { t with indexes = Index.Set.remove i t.indexes }

(** Removing a view also removes every index defined over it (§3.1.2,
    Removal). *)
let remove_view t v =
  let vname = View.name v in
  {
    indexes = Index.Set.filter (fun i -> Index.owner i <> vname) t.indexes;
    views = String_map.remove vname t.views;
  }

(* The indexes over one relation, in set order.  [Index.compare] orders
   by key columns and [Column.compare] by table first, so an index's owner
   (its first key's table) is monotone in set order: one relation's
   indexes form a contiguous run, found by one descent. *)
let run_on t name =
  match
    Index.Set.find_first_opt
      (fun i -> String.compare (Index.owner i) name >= 0)
      t.indexes
  with
  | Some first when String.equal (Index.owner first) name ->
    Seq.take_while
      (fun i -> String.equal (Index.owner i) name)
      (Index.Set.to_seq_from first t.indexes)
  | Some _ | None -> Seq.empty

(** Indexes over a given relation (base table or view). *)
let indexes_on t name = List.of_seq (run_on t name)

(* the last clustered index of the run, as a fold over the whole set
   would find *)
let clustered_on t name =
  Seq.fold_left
    (fun acc (i : Index.t) -> if i.clustered then Some i else acc)
    None (run_on t name)

let union a b =
  {
    indexes = Index.Set.union a.indexes b.indexes;
    views =
      String_map.union (fun _ v _ -> Some v) a.views b.views;
  }

let cardinal t = Index.Set.cardinal t.indexes + String_map.cardinal t.views

let is_empty t = Index.Set.is_empty t.indexes && String_map.is_empty t.views

(** Structure names, sorted: the identity of a configuration. *)
let structure_names t =
  Index.Set.fold (fun i acc -> Index.name i :: acc) t.indexes []
  @ String_map.fold (fun n _ acc -> n :: acc) t.views []
  |> List.sort String.compare

let fingerprint t = String.concat "|" (structure_names t)

(** Fingerprint of the sub-configuration relevant to a set of relations;
    two configurations agreeing on it yield identical plans for a query
    touching only those relations.  Views are relevant if they read any of
    the tables (they may match a sub-query), as are indexes over relevant
    views. *)
let fingerprint_for_tables t tables =
  let relevant_views =
    String_map.filter
      (fun _ (v, _) -> List.exists (fun tb -> List.mem tb tables) (View.base_tables v))
      t.views
  in
  let relevant_relation name =
    List.mem name tables || String_map.mem name relevant_views
  in
  let idx =
    Index.Set.fold
      (fun i acc ->
        if relevant_relation (Index.owner i) then Index.name i :: acc else acc)
      t.indexes []
  in
  let vws = String_map.fold (fun n _ acc -> n :: acc) relevant_views [] in
  String.concat "|" (List.sort String.compare (idx @ vws))

(* --- sizing --------------------------------------------------------------- *)

(** Width of an index column: base columns read the catalog, view columns
    resolve through the view's output items (aggregates are 8-byte
    numbers). *)
let column_width catalog t (c : column) =
  match Relax_catalog.Catalog.col_stats_opt catalog c with
  | Some s -> s.width
  | None -> (
    match find_view t c.tbl with
    | None -> 8.0
    | Some (v, _) -> (
      match View.item_of_view_column v c with
      | Some (Item_col base) -> (
        match Relax_catalog.Catalog.col_stats_opt catalog base with
        | Some s -> s.width
        | None -> 8.0)
      | Some (Item_agg _) | None -> 8.0))

(** Row count of a relation under this configuration. *)
let relation_rows catalog t name =
  match find_view t name with
  | Some (_, rows) -> rows
  | None -> Relax_catalog.Catalog.rows catalog name

(** Full row width of a relation (for clustered leaves and heap pages). *)
let relation_row_width catalog t name =
  match find_view t name with
  | Some (v, _) ->
    List.fold_left
      (fun acc (_, it) -> acc +. column_width catalog t (View.column_of_item v it))
      0.0
      (List.map (fun (n, it) -> (n, it)) (View.outputs v))
  | None -> Relax_catalog.Catalog.row_width catalog name

(** Size in bytes of one index under this configuration. *)
let index_bytes catalog t (i : Index.t) =
  let name = Index.owner i in
  Size_model.index_bytes
    ~rows:(relation_rows catalog t name)
    ~width_of:(column_width catalog t)
    ~row_width:(relation_row_width catalog t name)
    i

(** Total size of the configuration: the sum of sizes of all physical
    structures (§3.3.1).  A view's storage is carried by its indexes
    (including the clustered one). *)
let bytes catalog t =
  Index.Set.fold (fun i acc -> acc +. index_bytes catalog t i) t.indexes 0.0

(** Total storage footprint: the configuration's structures plus base-table
    storage (each table is a heap unless the configuration clusters it).
    This is the quantity compared against the space budget; promoting an
    index to clustered trades the heap for the clustered leaves. *)
let total_bytes catalog t =
  let module Cat = Relax_catalog.Catalog in
  List.fold_left
    (fun acc name ->
      if clustered_on t name <> None then acc
      else
        acc
        +. Size_model.heap_pages ~rows:(Cat.rows catalog name)
             ~row_width:(Cat.row_width catalog name) ()
           *. Size_model.default_params.page_size)
    (bytes catalog t) (Cat.table_names catalog)

let pp ppf t =
  Fmt.pf ppf "@[<v>config (%d structures):@," (cardinal t);
  String_map.iter (fun _ (v, rows) -> Fmt.pf ppf "  %a  [~%.0f rows]@," View.pp v rows) t.views;
  Index.Set.iter (fun i -> Fmt.pf ppf "  %a@," Index.pp i) t.indexes;
  Fmt.pf ppf "@]"
