(** The cost-based query optimizer.

    System-R style dynamic programming over connected table subsets, with
    hash joins and index nested-loop joins (whose inner sides issue index
    requests with parameterized equality predicates, per Figure 2); view
    matching is attempted for every enumerated sub-join and for the full
    grouped block; grouping and ordering are enforced on top.

    Hooks fire on every index and view request, which is the entire
    instrumentation surface the tuner needs (§2). *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr
module View = Relax_physical.View
module Config = Relax_physical.Config
module P = Cost_params

let src = Logs.Src.create "relax.optimizer" ~doc:"query optimizer"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* per-query precomputation                                            *)
(* ------------------------------------------------------------------ *)

type qinfo = {
  q : Query.spjg;
  order_by : (column * order_dir) list;
  tables : string array;
  n : int;
  needed : (string, Column_set.t) Hashtbl.t;  (** columns needed per table *)
}

let table_index info t =
  let rec go i = if info.tables.(i) = t then i else go (i + 1) in
  go 0

let mask_of_tables info ts =
  List.fold_left (fun m t -> m lor (1 lsl table_index info t)) 0 ts

let tables_of_mask info mask =
  let rec go i acc =
    if i >= info.n then List.rev acc
    else go (i + 1) (if mask land (1 lsl i) <> 0 then info.tables.(i) :: acc else acc)
  in
  go 0 []

let analyze (sq : Query.select_query) : qinfo =
  let q = sq.body in
  let tables = Array.of_list q.tables in
  let all_cols = Query.spjg_columns q in
  let all_cols =
    List.fold_left (fun acc (c, _) -> Column_set.add c acc) all_cols sq.order_by
  in
  let needed = Hashtbl.create 8 in
  Array.iter
    (fun t ->
      Hashtbl.replace needed t
        (Column_set.filter (fun c -> c.tbl = t) all_cols))
    tables;
  { q; order_by = sq.order_by; tables; n = Array.length tables; needed }

(* predicates applicable once all tables of [mask] are joined *)
let joins_in info mask =
  List.filter
    (fun (j : Predicate.join) ->
      let m = mask_of_tables info [ j.left.tbl; j.right.tbl ] in
      m land mask = m)
    info.q.joins

let ranges_in info mask =
  List.filter
    (fun (r : Predicate.range) ->
      mask_of_tables info [ r.rcol.tbl ] land mask <> 0)
    info.q.ranges

let others_in info mask =
  List.filter
    (fun e ->
      let ts = Expr.tables e in
      ts <> [] && mask_of_tables info ts land mask = mask_of_tables info ts)
    info.q.others

(* the SPJG block computed by the sub-join of [mask]: outputs every column
   needed above the sub-join *)
let sub_block info mask : Query.spjg =
  let ts = tables_of_mask info mask in
  let outside_cols =
    (* columns of mask tables used by joins crossing the mask boundary, by
       predicates not yet applicable, by select/group/order *)
    let acc = Column_set.empty in
    let acc =
      List.fold_left
        (fun acc it -> Column_set.union acc (Query.item_columns it))
        acc info.q.select
    in
    let acc = List.fold_left (fun acc c -> Column_set.add c acc) acc info.q.group_by in
    let acc =
      List.fold_left (fun acc (c, _) -> Column_set.add c acc) acc info.order_by
    in
    let acc =
      List.fold_left
        (fun acc (j : Predicate.join) ->
          let m = mask_of_tables info [ j.left.tbl; j.right.tbl ] in
          if m land mask <> m then
            Column_set.add j.left (Column_set.add j.right acc)
          else acc)
        acc info.q.joins
    in
    List.fold_left
      (fun acc e ->
        let ts' = Expr.tables e in
        let m = mask_of_tables info ts' in
        if m land mask <> m then Column_set.union acc (Expr.columns e) else acc)
      acc info.q.others
  in
  let select =
    Column_set.elements
      (Column_set.filter (fun c -> List.mem c.tbl ts) outside_cols)
    |> List.map (fun c -> Query.Item_col c)
  in
  Query.make_spjg ~select ~tables:ts ~joins:(joins_in info mask)
    ~ranges:(ranges_in info mask) ~others:(others_in info mask) ()

(* ------------------------------------------------------------------ *)
(* operators                                                           *)
(* ------------------------------------------------------------------ *)

(* Each join operator with its cost and the order it delivers; the
   caller gives it its rows and columns. *)
let hash_join ~(build : Plan.t) ~(probe : Plan.t) joins =
  ( Plan.Hash_join { build; probe; joins },
    build.cost +. probe.cost
    +. (build.rows *. P.cpu_hash)
    +. (probe.rows *. P.cpu_hash),
    probe.out_order )

let merge_join ~(left : Plan.t) ~(right : Plan.t) joins =
  ( Plan.Merge_join { left; right; joins },
    left.cost +. right.cost +. ((left.rows +. right.rows) *. P.cpu_tuple),
    left.out_order )

(* [inner] runs once per outer row; [rows_out] rows leave the join *)
let nl_join ~(outer : Plan.t) ~inner ~rows_out joins =
  let inner = Plan.with_executions inner outer.rows in
  ( Plan.Nl_join { outer; inner; joins },
    outer.cost +. (outer.rows *. inner.cost) +. (rows_out *. P.cpu_tuple),
    outer.out_order )

(* A grouping of [input] into [groups] rows: streaming over an input
   already ordered on [keys], else hashing. *)
let group (input : Plan.t) ~keys ~aggs ~streaming ~groups : Plan.t =
  {
    node = Group { input; keys; aggs; streaming };
    rows = groups;
    cost =
      (if streaming then input.cost +. (input.rows *. P.cpu_agg)
       else input.cost +. (input.rows *. P.cpu_hash) +. (groups *. P.cpu_agg));
    out_order = (if streaming then input.out_order else []);
    out_cols =
      List.fold_left
        (fun acc it -> Column_set.union acc (Query.item_columns it))
        (Column_set.of_list keys) aggs;
  }

(* Keep [p] in DP cell [mask] unless the cell holds a plan no dearer. *)
let keep (cells : Plan.t option array) mask (p : Plan.t) =
  match cells.(mask) with
  | Some best when best.cost <= p.cost -> ()
  | _ -> cells.(mask) <- Some p

(* ------------------------------------------------------------------ *)
(* view-based alternatives                                             *)
(* ------------------------------------------------------------------ *)

(** Build a plan answering [block] through a matched view. *)
let view_plan env ?hooks (m : View_match.result) ~rows_out : Plan.t =
  let vname = View.name m.view in
  let request =
    Request.make ~rel:vname ~ranges:m.residual_ranges ~others:m.residual_others
      ~cols:m.needed_cols ()
  in
  let access = Access_path.best env ?hooks ~via_view:m.view request in
  let plan =
    match m.regroup with
    | None -> access
    | Some (keys, aggs) ->
      group access ~keys ~aggs ~streaming:false
        ~groups:(Cardinality.group_rows env ~input_rows:access.rows keys)
  in
  { plan with rows = Float.max 1.0 rows_out }

(** All view-based plans for a block.  The view-request hook fires only for
    {e interesting} blocks — ones whose result condenses its inputs (by
    predicates or grouping) — matching how production optimizers gate view
    matching; uninteresting blocks still try to match existing views. *)
let view_alternatives env ?hooks ~interesting (block : Query.spjg) ~rows_out :
    Plan.t list =
  if interesting then Hooks.fire_view hooks block;
  List.filter_map
    (fun v ->
      match View_match.try_match v block with
      | Some m -> Some (view_plan env ?hooks m ~rows_out)
      | None -> None)
    (Config.views (env : Env.t).config)

(* ------------------------------------------------------------------ *)
(* join enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let base_request info i ~order : Request.t =
  let t = info.tables.(i) in
  let mask = 1 lsl i in
  Request.make ~rel:t ~ranges:(ranges_in info mask)
    ~others:(others_in info mask)
    ~order
    ~cols:(Hashtbl.find info.needed t)
    ()

let connecting_joins info ~left ~right =
  List.filter
    (fun (j : Predicate.join) ->
      let ml = mask_of_tables info [ j.left.tbl ]
      and mr = mask_of_tables info [ j.right.tbl ] in
      (ml land left <> 0 && mr land right <> 0)
      || (ml land right <> 0 && mr land left <> 0))
    info.q.joins

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(** Optimize one select query under the environment's configuration. *)
let optimize_select env ?hooks (sq : Query.select_query) : Plan.t =
  let info = analyze sq in
  let n = info.n in
  let full = (1 lsl n) - 1 in
  let card = Array.make (full + 1) 0.0 in
  for mask = 1 to full do
    card.(mask) <-
      Cardinality.join_rows env
        ~tables:(tables_of_mask info mask)
        ~joins:(joins_in info mask) ~ranges:(ranges_in info mask)
        ~others:(others_in info mask)
  done;
  let dp : Plan.t option array = Array.make (full + 1) None in
  (* effective order pushed into single-table requests at the top *)
  let top_order =
    if info.q.group_by <> [] then List.map (fun c -> (c, Asc)) info.q.group_by
    else info.order_by
  in
  (* Interesting orders: when the whole required order lives on one table,
     a second DP track [dpo] carries plans that already deliver it (an
     order-providing index on that table, propagated through joins that
     preserve their streamed side's order).  This is what lets an ordered
     index at a join input absorb the top-level sort — and, in tuning mode,
     what makes the optimizer issue the ordered index requests of §2.1. *)
  let order_tbl =
    match top_order with
    | [] -> None
    | (c0, _) :: rest ->
      if List.for_all (fun ((c : column), _) -> c.tbl = c0.tbl) rest then
        Some c0.tbl
      else None
  in
  let dpo : Plan.t option array = Array.make (full + 1) None in
  (* The join enumeration asks the same single-table request again for
     every split, merge-join input and nested-loop inner: each distinct
     request is selected once per call and answered from this call's
     table after that.  An answer still fires [on_index_request]. *)
  let calls = Hashtbl.create 16 and answered = ref 0 in
  let select (r : Request.t) =
    let key = Request.fingerprint r in
    match Hashtbl.find_opt calls key with
    | Some p ->
      incr answered;
      Hooks.fire_index hooks r;
      p
    | None ->
      let p = Access_path.best env ?hooks r in
      Hashtbl.add calls key p;
      p
  in
  for i = 0 to n - 1 do
    let order = if n = 1 then top_order else [] in
    let r = base_request info i ~order in
    dp.(1 lsl i) <- Some (select r);
    if n > 1 && order_tbl = Some info.tables.(i) then
      dpo.(1 lsl i) <- Some (select { r with order = top_order })
  done;
  (* enumerate masks by size *)
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      (* join splits *)
      let sub = ref ((mask - 1) land mask) in
      let found_connected = ref false in
      let try_split ~allow_cartesian sub =
        let left = sub and right = mask land lnot sub in
        if left <> 0 && right <> 0 then begin
          match (dp.(left), dp.(right)) with
          | Some lp, Some rp ->
            let joins = connecting_joins info ~left ~right in
            if joins <> [] || allow_cartesian then begin
              if joins <> [] then found_connected := true;
              let rows_out = card.(mask) in
              (* newly applicable multi-table others *)
              let new_others =
                List.filter
                  (fun e ->
                    let m = mask_of_tables info (Expr.tables e) in
                    popcount m >= 2 && m land left <> m && m land right <> m)
                  (others_in info mask)
              in
              let out_cols = Column_set.union lp.out_cols rp.out_cols in
              let finish ?(cells = dp) (node, cost, order) =
                let p =
                  {
                    Plan.node;
                    rows = rows_out;
                    cost;
                    out_order = order;
                    out_cols;
                  }
                in
                let p =
                  if new_others = [] then p
                  else
                    {
                      Plan.node = Filter { input = p; ranges = []; others = new_others };
                      rows = rows_out;
                      cost = p.cost +. (p.rows *. P.cpu_eval);
                      out_order = p.out_order;
                      out_cols;
                    }
                in
                keep cells mask p
              in
              (* hash join: build on the smaller input *)
              let build, probe = if lp.rows <= rp.rows then (lp, rp) else (rp, lp) in
              finish (hash_join ~build ~probe joins);
              (* merge join: exploits inputs already sorted on the join
                 keys (an index delivering key order avoids both sorts) *)
              if joins <> [] then begin
                let left_keys, right_keys =
                  List.split
                    (List.map
                       (fun (j : Predicate.join) ->
                         if mask_of_tables info [ j.left.tbl ] land left <> 0
                         then (j.left, j.right)
                         else (j.right, j.left))
                       joins)
                in
                (* join-key interesting orders: a single-table side may
                   satisfy the merge order through an order-providing index
                   instead of an explicit sort.  Requesting the ordered
                   access explicitly matters beyond plan quality: the §3.3.2
                   relaxation bound patches accesses with their consumed
                   order folded into the request, and its soundness needs
                   the optimizer's plan space to contain those patched
                   plans (the checker caught a configuration where the
                   best *unordered* access lost the order an index had
                   delivered for free, and the bound undercut the
                   re-optimized cost). *)
                let sorted_input sub (p : Plan.t) keys =
                  let required = List.map (fun c -> (c, Asc)) keys in
                  let sorted = Access_path.add_sort env p ~required in
                  if popcount sub <> 1 then sorted
                  else begin
                    let i =
                      table_index info (List.hd (tables_of_mask info sub))
                    in
                    let r = base_request info i ~order:required in
                    let ordered = select r in
                    if ordered.cost < sorted.cost then ordered else sorted
                  end
                in
                let ls = sorted_input left lp left_keys
                and rs = sorted_input right rp right_keys in
                finish (merge_join ~left:ls ~right:rs joins)
              end;
              (* index nested-loop join when the inner side is one table *)
              let nlj_inner () =
                let i = table_index info (List.hd (tables_of_mask info right)) in
                let inner_t = info.tables.(i) in
                let param_eq =
                  List.map
                    (fun (j : Predicate.join) ->
                      if j.left.tbl = inner_t then j.left else j.right)
                    joins
                in
                let r =
                  Request.make ~rel:inner_t
                    ~ranges:(ranges_in info right)
                    ~param_eq
                    ~others:(others_in info right)
                    ~cols:(Hashtbl.find info.needed inner_t)
                    ()
                in
                select r
              in
              if popcount right = 1 && joins <> [] then
                finish (nl_join ~outer:lp ~inner:(nlj_inner ()) ~rows_out joins);
              (* the interesting-order track: joins that stream an ordered
                 input preserve its order (hash probe side, nested-loop
                 outer), letting an order-providing index absorb the
                 top-level sort *)
              (match dpo.(left) with
              | Some lpo when joins <> [] ->
                finish ~cells:dpo (hash_join ~build:rp ~probe:lpo joins);
                if popcount right = 1 then
                  finish ~cells:dpo
                    (nl_join ~outer:lpo ~inner:(nlj_inner ()) ~rows_out joins)
              | _ -> ());
              (match dpo.(right) with
              | Some rpo when joins <> [] ->
                finish ~cells:dpo (hash_join ~build:lp ~probe:rpo joins)
              | _ -> ())
            end
          | _ -> ()
        end
      in
      (* first pass: connected splits only *)
      let s = ref !sub in
      while !s <> 0 do
        try_split ~allow_cartesian:false !s;
        s := (!s - 1) land mask
      done;
      if (not !found_connected) && dp.(mask) = None then begin
        (* disconnected sub-join: fall back to cartesian products *)
        let s = ref ((mask - 1) land mask) in
        while !s <> 0 do
          try_split ~allow_cartesian:true !s;
          s := (!s - 1) land mask
        done
      end;
      (* view-based alternative for this sub-join; the request is only
         interesting if materializing it would condense the data *)
      let block = sub_block info mask in
      let max_base_rows =
        List.fold_left
          (fun acc t -> Float.max acc (Env.rows env t))
          1.0 (tables_of_mask info mask)
      in
      let interesting = card.(mask) <= 0.8 *. max_base_rows in
      List.iter (keep dp mask)
        (view_alternatives env ?hooks ~interesting block ~rows_out:card.(mask))
    end
  done;
  (* single-table SPJ blocks never enter the >= 2 mask loop; still try
     matching user-supplied single-table views for the full block *)
  if n = 1 then begin
    let block = sub_block info full in
    List.iter (keep dp full)
      (view_alternatives env ?hooks ~interesting:false block
         ~rows_out:card.(full))
  end;
  let joined =
    match dp.(full) with
    | Some p -> p
    | None -> assert false (* singles always exist *)
  in
  (* grouping / aggregation on top *)
  let apply_grouping (joined : Plan.t) =
    if info.q.group_by = [] && not (Query.has_aggregates info.q) then joined
    else begin
      let keys = info.q.group_by in
      group joined ~keys ~aggs:info.q.select
        ~streaming:
          (keys <> []
          && Access_path.order_satisfied ~delivered:joined.out_order
               ~required:(List.map (fun c -> (c, Asc)) keys))
        ~groups:
          (if keys = [] then 1.0
           else Cardinality.group_rows env ~input_rows:joined.rows keys)
    end
  in
  let grouped = apply_grouping joined in
  (* the interesting-order track: already delivers the effective top order,
     so grouping streams and the final sort disappears *)
  let ordered_alternative =
    match dpo.(full) with
    | Some p when n > 1 -> Some (apply_grouping p)
    | _ -> None
  in
  (* a view matching the whole grouped block may beat the DP plan *)
  let top_rows = Cardinality.spjg env info.q in
  let whole_block_alternatives =
    if info.q.group_by <> [] || Query.has_aggregates info.q then
      (* grouped blocks always condense: always an interesting request *)
      view_alternatives env ?hooks ~interesting:true info.q ~rows_out:top_rows
    else [] (* pure SPJ blocks were already tried at the full mask *)
  in
  (* compare all top alternatives with the output order enforced *)
  let candidates =
    whole_block_alternatives
    @ (match ordered_alternative with Some p -> [ p ] | None -> [])
  in
  let final =
    List.fold_left
      (fun (acc : Plan.t) (p : Plan.t) ->
        let p = Access_path.add_sort env p ~required:info.order_by in
        if p.cost < acc.cost then p else acc)
      (Access_path.add_sort env grouped ~required:info.order_by)
      candidates
  in
  (* selections the table answered are asked-for requests too *)
  if !answered > 0 then begin
    Relax_obs.Probe.count_n "access_path.requests" !answered;
    Relax_obs.Probe.count_n "access_path.call_hits" !answered
  end;
  final

(** Public entry point: optimize a select query under a configuration. *)
let optimize catalog config ?hooks (sq : Query.select_query) : Plan.t =
  Relax_obs.Probe.span "optimizer.optimize" @@ fun () ->
  Relax_obs.Probe.count "optimizer.optimizations";
  let env = Env.make catalog config in
  optimize_select env ?hooks sq
