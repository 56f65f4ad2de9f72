(** Measured execution: walk an optimizer plan against real rows, computing
    exact intermediate cardinalities and page accesses.

    The same cost constants as the optimizer's model are used, so the
    difference between an estimated plan cost and its measured cost isolates
    exactly what validation is after: cardinality-estimation error and
    page-locality effects, not unit mismatches. *)

open Relax_sql.Types
module O = Relax_optimizer
module P = O.Cost_params
module Predicate = Relax_sql.Predicate
module Size_model = Relax_physical.Size_model
module Index = Relax_physical.Index

type measured = {
  rows : Eval.rowset;  (** the exact result of the sub-plan *)
  cost : float;  (** measured cost in the optimizer's units *)
}

let heap_rows_per_page env rel =
  let width = Float.max 1.0 (O.Env.row_width env rel) in
  (* floor, matching the size model: a partial row does not fit on a page *)
  Float.max 1.0
    (Float.floor
       ((Size_model.default_params.page_size -. Size_model.default_params.page_overhead)
        *. Size_model.default_params.fill_factor /. width))

(* distinct heap pages touched when fetching these row indices *)
let distinct_pages env rel indices =
  let per = int_of_float (heap_rows_per_page env rel) in
  let pages = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace pages (i / max 1 per) ()) indices;
  float_of_int (Hashtbl.length pages)

let index_geometry env (i : Index.t) =
  let rel = Index.owner i in
  let rows = O.Env.rows env rel in
  let leaf, height =
    Size_model.geometry ~rows ~width_of:(O.Env.width_of env)
      ~row_width:(O.Env.row_width env rel) i
  in
  (rows, leaf, float_of_int height)

(* measured cost of one index usage given the TRUE matched fraction *)
let usage_cost env (u : O.Plan.index_usage) ~true_matched =
  let rows, leaf, height = index_geometry env u.index in
  match u.kind with
  | Scan -> (leaf *. P.seq_page) +. (rows *. P.cpu_tuple)
  | Seek _ ->
    let frac = if rows <= 0.0 then 0.0 else true_matched /. rows in
    (height *. P.rand_page)
    +. (Float.max 1.0 (Float.ceil (frac *. leaf)) *. P.seq_page)
    +. (true_matched *. P.cpu_tuple)

(* rows matching only the constraints a seek consumed *)
let seek_matched (rs : Eval.rowset) (request : O.Request.t)
    (u : O.Plan.index_usage) =
  match u.kind with
  | Scan -> float_of_int (Eval.cardinality rs)
  | Seek { seek_cols; _ } ->
    let consumed =
      List.filter
        (fun (r : Predicate.range) ->
          List.exists (Column.equal r.rcol) seek_cols)
        request.ranges
    in
    float_of_int (Eval.count_matching rs ~ranges:consumed ~others:[])

(** Measure a single-relation access exactly.  [extra_filter] restricts the
    output further (used when a caller pushes parameters). *)
let access db env (info : O.Plan.access_info) : measured =
  let r = info.request in
  let rel = Data.relation db r.rel in
  let rs = Eval.of_relation rel in
  let n = float_of_int (Eval.cardinality rs) in
  let matched_idx = Eval.matching_indices rs ~ranges:r.ranges ~others:r.others in
  let matched = float_of_int (List.length matched_idx) in
  let out = Eval.filter rs ~ranges:r.ranges ~others:r.others in
  (* a view access stands for a sub-join over base tables: upstream plan
     nodes reference the base columns, so alias each plain view output
     with the base column it exposes *)
  let out =
    match info.via_view with
    | None -> out
    | Some v ->
      let module View = Relax_physical.View in
      let aliases =
        List.filter_map
          (fun (_, it) ->
            match it with
            | Relax_sql.Query.Item_col base ->
              Some (Eval.index_of out (View.column_of_item v it), base)
            | Relax_sql.Query.Item_agg _ -> None)
          (View.outputs v)
      in
      {
        Eval.schema =
          Array.append out.schema
            (Array.of_list (List.map snd aliases));
        rows =
          Array.map
            (fun row ->
              Array.append row
                (Array.of_list (List.map (fun (i, _) -> row.(i)) aliases)))
            out.rows;
      }
  in
  let covered avail = Column_set.subset r.cols avail in
  let base_cost =
    match info.usages with
    | [] ->
      (* heap scan *)
      (O.Env.table_pages env r.rel *. P.seq_page) +. (n *. P.cpu_tuple)
    | usages ->
      List.fold_left
        (fun acc (u : O.Plan.index_usage) ->
          acc +. usage_cost env u ~true_matched:(seek_matched rs r u))
        0.0 usages
  in
  let lookup_cost =
    match info.usages with
    | [] -> 0.0
    | [ u ] when u.index.clustered -> 0.0
    | u :: _ ->
      let avail =
        if u.index.clustered then
          Column_set.of_list (Array.to_list rel.schema)
        else Index.columns u.index
      in
      if covered avail then 0.0
      else begin
        (* TRUE page locality: distinct heap pages of the matched rids *)
        let pages = distinct_pages env r.rel matched_idx in
        (pages *. P.rand_page) +. (matched *. P.cpu_tuple)
      end
  in
  let filter_cost = matched *. P.cpu_eval in
  let sort_cost =
    if info.sorted then
      P.sort_cost ~rows:matched
        ~pages:(Float.max 1.0 (matched /. heap_rows_per_page env r.rel))
    else 0.0
  in
  { rows = out; cost = base_cost +. lookup_cost +. filter_cost +. sort_cost }

(* inner side of an index nested-loop join: candidates after non-param
   predicates; the join itself accounts the per-execution seeks *)
let nlj_inner db (info : O.Plan.access_info) : Eval.rowset =
  let r = info.request in
  let rel = Data.relation db r.rel in
  Eval.filter (Eval.of_relation rel) ~ranges:r.ranges ~others:r.others

exception Unmeasurable of string

(** Measure a whole plan: exact result rows plus measured cost. *)
let rec plan db env (p : O.Plan.t) : measured =
  match p.node with
  | Access { info; _ } -> access db env info
  | Filter { input; ranges; others } ->
    let m = plan db env input in
    let rows = Eval.filter m.rows ~ranges ~others in
    {
      rows;
      cost = m.cost +. (float_of_int (Eval.cardinality m.rows) *. P.cpu_eval);
    }
  | Sort { input; _ } ->
    let m = plan db env input in
    let n = float_of_int (Eval.cardinality m.rows) in
    { m with cost = m.cost +. P.sort_cost ~rows:n ~pages:(Float.max 1.0 (n /. 100.0)) }
  | Hash_join { build; probe; joins } ->
    let mb = plan db env build and mp = plan db env probe in
    let rows = Eval.hash_join mb.rows mp.rows joins in
    {
      rows;
      cost =
        mb.cost +. mp.cost
        +. (float_of_int (Eval.cardinality mb.rows) *. P.cpu_hash)
        +. (float_of_int (Eval.cardinality mp.rows) *. P.cpu_hash);
    }
  | Merge_join { left; right; joins } ->
    let ml = plan db env left and mr = plan db env right in
    let rows = Eval.hash_join ml.rows mr.rows joins in
    {
      rows;
      cost =
        ml.cost +. mr.cost
        +. ((float_of_int (Eval.cardinality ml.rows)
            +. float_of_int (Eval.cardinality mr.rows))
           *. P.cpu_tuple);
    }
  | Nl_join { outer; inner; joins } -> (
    let mo = plan db env outer in
    match inner.node with
    | Access { info; _ } ->
      let candidates = nlj_inner db info in
      let rows = Eval.hash_join mo.rows candidates joins in
      let executions = float_of_int (Eval.cardinality mo.rows) in
      let total_matched = float_of_int (Eval.cardinality rows) in
      let avg = if executions > 0.0 then total_matched /. executions else 0.0 in
      let per_exec =
        match info.usages with
        | { index; _ } :: _ ->
          let irows, leaf, height = index_geometry env index in
          let frac = if irows > 0.0 then avg /. irows else 0.0 in
          (height *. P.rand_page)
          +. (Float.max 1.0 (Float.ceil (frac *. leaf)) *. P.seq_page)
          +. (avg *. P.cpu_tuple)
          +.
          (* lookup when the index does not cover *)
          (let avail =
             if index.clustered then
               Column_set.of_list
                 (Array.to_list (Data.relation db info.rel).schema)
             else Index.columns index
           in
           if Column_set.subset info.request.cols avail then 0.0
           else avg *. P.rand_page)
        | [] ->
          (* scanning the inner per outer row *)
          (O.Env.table_pages env info.rel *. P.seq_page)
          +. (float_of_int (Eval.cardinality candidates) *. P.cpu_tuple)
      in
      {
        rows;
        cost = mo.cost +. (executions *. per_exec) +. (total_matched *. P.cpu_tuple);
      }
    | _ -> raise (Unmeasurable "nested-loop inner is not an access"))
  | Group { input; keys; aggs; streaming } ->
    let m = plan db env input in
    let rows = Eval.group_by m.rows ~keys ~aggs in
    let n_in = float_of_int (Eval.cardinality m.rows) in
    let n_out = float_of_int (Eval.cardinality rows) in
    let cost =
      if streaming then m.cost +. (n_in *. P.cpu_agg)
      else m.cost +. (n_in *. P.cpu_hash) +. (n_out *. P.cpu_agg)
    in
    { rows; cost }
  | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_intersect _ | Rid_union _
  | Rid_lookup _ ->
    raise (Unmeasurable "bare physical node outside an access wrapper")
