(** Materialized views.

    A view is an SPJG block [V = (S, F, J, R, O, G)] (§3.1.2).  When
    simulated, a view becomes a derived table whose columns are the mangled
    output items; secondary indexes can then be built over the view exactly
    as over base tables.  This module provides the pure structural parts:
    naming, output-column mapping, and the §3.1.2 merge operation. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr

type t = {
  vname : string;  (** derived-table name, canonical in the definition *)
  def : Query.spjg;
}

(* Deterministic, readable mangled name for an output item. *)
let item_name (it : Query.select_item) =
  match it with
  | Item_col c -> c.tbl ^ "_" ^ c.col
  | Item_agg (f, Some c) ->
    Fmt.str "%a_%s_%s" Query.pp_agg_fn f c.tbl c.col |> String.lowercase_ascii
  | Item_agg (f, None) ->
    Fmt.str "%a_star" Query.pp_agg_fn f |> String.lowercase_ascii

let dedup_items items =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun it ->
      let k = item_name it in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    items

(* A short stable digest of the definition for the view name. *)
let fingerprint (def : Query.spjg) =
  let b = Buffer.create 128 in
  List.iter (fun it -> Buffer.add_string b (item_name it)) (dedup_items def.select);
  List.iter (Buffer.add_string b) def.tables;
  List.iter
    (fun (j : Predicate.join) ->
      Buffer.add_string b (Column.to_string j.left);
      Buffer.add_string b (Column.to_string j.right))
    def.joins;
  List.iter
    (fun r -> Buffer.add_string b (Predicate.range_key r))
    def.ranges;
  List.iter (fun e -> Buffer.add_string b (Expr.fingerprint e)) def.others;
  List.iter (fun c -> Buffer.add_string b (Column.to_string c)) def.group_by;
  Buffer.contents b

let make (def : Query.spjg) : t =
  let def = { def with select = dedup_items def.select } in
  let digest = Digest.to_hex (Digest.string (fingerprint def)) in
  { vname = "v_" ^ String.sub digest 0 10; def }

let name t = t.vname
let definition t = t.def

let equal a b = String.equal a.vname b.vname
let compare a b = String.compare a.vname b.vname

(** Output items, in select order, with their mangled column names. *)
let outputs t : (string * Query.select_item) list =
  List.map (fun it -> (item_name it, it)) t.def.select

(** The view-qualified column for an output item. *)
let column_of_item t it = Column.make t.vname (item_name it)

(** Map a base-table column to its view column, if the view exposes it
    as a plain (non-aggregated) output. *)
let view_column_of_base t (c : column) : column option =
  List.find_map
    (fun (it : Query.select_item) ->
      match it with
      | Item_col c' when Column.equal c c' -> Some (column_of_item t it)
      | Item_col _ | Item_agg _ -> None)
    t.def.select

(** Inverse of {!view_column_of_base} / aggregate lookup: the select item a
    view column stands for. *)
let item_of_view_column t (c : column) : Query.select_item option =
  if c.tbl <> t.vname then None
  else
    List.find_map
      (fun it -> if item_name it = c.col then Some it else None)
      t.def.select

(** Does the view definition contain aggregates? *)
let has_aggregates t = Query.has_aggregates t.def

(** Tables the view reads (its F component); an update to any of them incurs
    view-maintenance cost. *)
let base_tables t = t.def.tables

let pp ppf t =
  Fmt.pf ppf "%s = %a" t.vname Relax_sql.Pretty.pp_spjg t.def

(* --- §3.1.2 view merging -------------------------------------------------- *)

(** Result of merging two views: the merged view plus the column remapping
    for each input (used to promote indexes from the inputs onto the merged
    view). *)
type merge_result = {
  merged : t;
  (* for each input view, maps that view's output column to the merged
     view's output column carrying the same contents *)
  remap1 : column -> column option;
  remap2 : column -> column option;
}

(** Merge two views with identical FROM sets (§3.1.2):
    [JM = J1 ∩ J2], [RM] unions same-column ranges (dropping ones that
    become unbounded or appear on one side only, while exposing the
    column so the original predicate can be compensated), [OM = O1 ∩ O2]
    structurally, [GM = G1 ∪ G2] when both group, and [SM] keeps
    aggregates only when a grouping survives.  Returns [None] when the
    FROM sets differ. *)
let merge (v1 : t) (v2 : t) : merge_result option =
  let d1 = v1.def and d2 = v2.def in
  if d1.tables <> d2.tables then None
  else begin
    let jm =
      List.filter (fun j -> Predicate.join_mem j d2.joins) d1.joins
    in
    (* Range merge: same-column ranges union; single-sided or unbounded
       ranges are dropped but their column must remain available for
       compensating filters. *)
    let compensation_cols = ref Column_set.empty in
    let need c = compensation_cols := Column_set.add c !compensation_cols in
    let rm =
      List.filter_map
        (fun (r1 : Predicate.range) ->
          match
            List.find_opt
              (fun (r2 : Predicate.range) -> Column.equal r1.rcol r2.rcol)
              d2.ranges
          with
          | None ->
            need r1.rcol;
            None
          | Some r2 ->
            let u = Predicate.range_union r1 r2 in
            if Predicate.is_unbounded u then begin
              need r1.rcol;
              None
            end
            else begin
              (* the surviving range is wider than either input, so both
                 sides still need the column for residual filtering *)
              if not (Predicate.range_equal u r1 && Predicate.range_equal u r2)
              then need r1.rcol;
              Some u
            end)
        d1.ranges
    in
    List.iter
      (fun (r2 : Predicate.range) ->
        if
          not
            (List.exists
               (fun (r1 : Predicate.range) -> Column.equal r1.rcol r2.rcol)
               d1.ranges)
        then need r2.rcol)
      d2.ranges;
    (* OM: structural intersection; conjuncts lost from either side need
       their columns exposed for compensation. *)
    let om =
      List.filter (fun e1 -> List.exists (Expr.equal e1) d2.others) d1.others
    in
    let lost_others =
      List.filter (fun e -> not (List.exists (Expr.equal e) om)) d1.others
      @ List.filter (fun e -> not (List.exists (Expr.equal e) om)) d2.others
    in
    List.iter
      (fun e -> Column_set.iter need (Expr.columns e))
      lost_others;
    (* Joins lost from either side also need their columns for compensation *)
    let lost_joins =
      List.filter (fun j -> not (Predicate.join_mem j jm)) (d1.joins @ d2.joins)
    in
    List.iter
      (fun (j : Predicate.join) ->
        need j.left;
        need j.right)
      lost_joins;
    let gm =
      if d1.group_by = [] || d2.group_by = [] then []
      else
        d1.group_by
        @ List.filter
            (fun c -> not (List.exists (Column.equal c) d1.group_by))
            d2.group_by
    in
    let sm =
      if gm <> [] then begin
        (* grouping survives: keep aggregates from both sides; compensation
           columns must join the grouping so residual predicates remain
           evaluable *)
        let extra =
          Column_set.elements !compensation_cols
          |> List.map (fun c -> Query.Item_col c)
        in
        dedup_items (d1.select @ d2.select @ extra)
      end
      else begin
        (* no grouping: aggregates cannot be stored; replace them by their
           base argument columns *)
        let debase (it : Query.select_item) =
          match it with
          | Item_col _ -> [ it ]
          | Item_agg (_, Some c) -> [ Query.Item_col c ]
          | Item_agg (_, None) -> []
        in
        let extra =
          Column_set.elements !compensation_cols
          |> List.map (fun c -> Query.Item_col c)
        in
        dedup_items (List.concat_map debase (d1.select @ d2.select) @ extra)
      end
    in
    let gm =
      if gm = [] then []
      else begin
        (* compensation columns must be grouped as well *)
        let extra =
          Column_set.elements !compensation_cols
          |> List.filter (fun c -> not (List.exists (Column.equal c) gm))
        in
        gm @ extra
      end
    in
    let merged =
      make
        (Query.make_spjg ~select:sm ~tables:d1.tables ~joins:jm ~ranges:rm
           ~others:om ~group_by:gm ())
    in
    (* Column remapping: an output item of an input view maps to the merged
       output carrying the same item; aggregates that were debased map to
       their base column. *)
    let remap (v : t) (c : column) : column option =
      match item_of_view_column v c with
      | None -> None
      | Some it -> (
        let target =
          if List.exists (fun it' -> item_name it' = item_name it) merged.def.select
          then Some it
          else
            match it with
            | Item_agg (_, Some base)
              when List.exists
                     (fun it' -> item_name it' = item_name (Item_col base))
                     merged.def.select -> Some (Query.Item_col base)
            | _ -> None
        in
        match target with
        | Some it' -> Some (column_of_item merged it')
        | None -> None)
    in
    Some { merged; remap1 = remap v1; remap2 = remap v2 }
  end
