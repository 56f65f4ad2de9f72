(** Structural configuration invariants (see the interface). *)

open Relax_sql.Types
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module View = Relax_physical.View

type violation = { rule : string; subject : string; detail : string }

let pp_violation ppf v =
  Fmt.pf ppf "%s: %s (%s)" v.rule v.subject v.detail

let v rule subject detail = { rule; subject; detail }

(* columns an index over [owner] may legally reference *)
let owner_columns catalog config owner =
  if Catalog.mem_table catalog owner then
    Some (Catalog.columns_of catalog owner)
  else
    match Config.find_view config owner with
    | Some (view, _) ->
      Some (List.map (fun (_, it) -> View.column_of_item view it) (View.outputs view))
    | None -> None

let check catalog config =
  let acc = ref [] in
  let add x = acc := x :: !acc in
  (* at most one clustered index per relation *)
  let clustered = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i.Index.clustered then begin
        let owner = Index.owner i in
        match Hashtbl.find_opt clustered owner with
        | Some first ->
          add
            (v "clustered_unique" owner
               (Fmt.str "both %s and %s are clustered" first (Index.name i)))
        | None -> Hashtbl.replace clustered owner (Index.name i)
      end)
    (Config.indexes config);
  (* no duplicate structure names (content-derived names: a duplicate means
     the same structure is carried twice) *)
  let names = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem names n then
        add (v "duplicate_structure" n "structure appears more than once")
      else Hashtbl.replace names n ())
    (Config.structure_names config);
  (* every index column exists on its owner *)
  List.iter
    (fun i ->
      let owner = Index.owner i in
      match owner_columns catalog config owner with
      | None ->
        add
          (v "unknown_owner" (Index.name i)
             (Fmt.str "owner %s is neither a base table nor a view of the \
                       configuration"
                owner))
      | Some cols ->
        Column_set.iter
          (fun c ->
            if not (List.exists (Column.equal c) cols) then
              add
                (v "unknown_column" (Index.name i)
                   (Fmt.str "column %s.%s does not exist on %s" c.tbl c.col
                      owner)))
          (Index.columns i))
    (Config.indexes config);
  (* every table and column a view's definition reads is in the catalog *)
  List.iter
    (fun view ->
      let name = View.name view and def = View.definition view in
      let cols = Relax_sql.Query.spjg_columns def in
      List.sort_uniq String.compare
        (def.tables @ List.map (fun c -> c.tbl) (Column_set.elements cols))
      |> List.iter (fun t ->
             if not (Catalog.mem_table catalog t) then
               add
                 (v "unknown_table" name
                    (Fmt.str "%s is not a catalog table" t)));
      Column_set.iter
        (fun c ->
          match owner_columns catalog Config.empty c.tbl with
          | Some known when not (List.exists (Column.equal c) known) ->
            add
              (v "unknown_column" name
                 (Fmt.str "column %s.%s does not exist" c.tbl c.col))
          | _ -> ())
        cols)
    (Config.views config);
  (* view row estimates must be finite and non-negative *)
  List.iter
    (fun (view, rows) ->
      if not (Float.is_finite rows) || rows < 0.0 then
        add
          (v "view_rows" (View.name view)
             (Fmt.str "row estimate %g is not a finite non-negative number"
                rows)))
    (Config.views_with_rows config);
  List.rev !acc
