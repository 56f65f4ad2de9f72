(** Optimizer instrumentation: deriving the optimal configuration (§2).

    Each index request [(S, N, O, A)] is answered with the physical
    structures that make the request's optimal plan possible (§2.1):

    - With no required order, Lemmas 1 and 2 imply the optimal plan seeks a
      single covering index whose keys are the sargable columns sorted by
      selectivity (equality predicates first, then at most one trailing
      non-equality range) and whose suffix holds every other referenced
      column.
    - With a required order [O], a second candidate starts its keys with
      [O]: if [O ⊆ S] the remaining sargable columns follow as keys and the
      rest become suffix columns; otherwise all of [S] and [A] become suffix
      columns.  The optimizer then picks whichever of the two alternatives
      (with or without a sort) is cheaper.

    Each view request (an SPJG sub-query) is answered by the sub-query
    itself materialized as a view — trivially the most efficient view for
    the request — with a clustered index over it.

    Because view matching spawns index requests over the view-tables on the
    next optimization pass, the procedure iterates to a fixpoint. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Predicate = Relax_sql.Predicate
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module O = Relax_optimizer

let src = Logs.Src.create "relax.instrument" ~doc:"optimizer instrumentation"

module Log = (val Logs.src_log src : Logs.LOG)

(** Per-query request counts (Table 1). *)
type request_stats = {
  qid : string;
  index_requests : int;  (** distinct index requests *)
  view_requests : int;  (** distinct view requests *)
}

(* ------------------------------------------------------------------ *)
(* optimal structures per request                                      *)
(* ------------------------------------------------------------------ *)

let dedup cols =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.add seen c ();
        true
      end)
    cols

(** Optimal index candidates for one index request (at most two: the
    seek-optimal index and, when an order is requested, the
    order-providing index). *)
let indexes_for_request env (r : O.Request.t) : Index.t list =
  let ranges_sorted =
    List.sort
      (fun a b ->
        Float.compare (O.Selectivity.range env a) (O.Selectivity.range env b))
      r.ranges
  in
  let eqs, noneqs = List.partition Predicate.is_equality ranges_sorted in
  let seek_keys =
    List.map (fun (rg : Predicate.range) -> rg.rcol) eqs
    @ r.param_eq
    @ (match noneqs with [] -> [] | rg :: _ -> [ rg.rcol ])
  in
  let seek_keys = dedup seek_keys in
  let mk keys =
    match keys with
    | [] -> None
    | _ ->
      let suffix = Column_set.diff r.cols (Column_set.of_list keys) in
      Some (Index.make ~keys ~suffix ())
  in
  let seek_index =
    match seek_keys with
    | [] ->
      (* no sargable predicate: a covering index still beats scanning the
         base table when the table is wide; key on the first needed column *)
      (match Column_set.elements r.cols with
      | [] -> None
      | first :: _ -> mk [ first ])
    | keys -> mk keys
  in
  (* IN-list predicates are non-sargable for a single seek but support
     multi-point union plans when the listed column leads an index *)
  let union_indexes =
    List.filter_map
      (fun e ->
        match e with
        | Relax_sql.Expr.In_list (Relax_sql.Expr.Col c, _ :: _)
          when c.tbl = r.rel ->
          mk (dedup (c :: seek_keys))
        | _ -> None)
      r.others
  in
  let order_index =
    if r.order = [] then None
    else begin
      let o_cols = dedup (List.map fst r.order) in
      let s_cols = O.Request.sargable_columns r in
      let o_in_s =
        List.for_all (fun c -> Column_set.mem c s_cols) o_cols
      in
      let keys =
        if o_in_s then
          o_cols
          @ List.filter
              (fun c -> not (List.exists (Column.equal c) o_cols))
              (Column_set.elements s_cols)
        else o_cols
      in
      mk (dedup keys)
    end
  in
  List.filter_map Fun.id [ seek_index; order_index ] @ union_indexes

(** Materialize a block as a view: the block itself, with a clustered
    index (keyed on its grouping columns when it has any, so that
    compensating re-aggregations stream). *)
let materialize_view env (block : Query.spjg) : (View.t * float * Index.t) option
    =
  let v = View.make block in
  let rows = O.Cardinality.spjg env block in
  match View.outputs v with
  | [] -> None
  | (_, first) :: _ ->
    let keys =
      match List.filter_map (View.view_column_of_base v) block.group_by with
      | [] -> [ View.column_of_item v first ]
      | ks -> ks
    in
    let ci = Index.make ~clustered:true ~keys ~suffix:Column_set.empty () in
    Some (v, rows, ci)

let view_for_request env (block : Query.spjg) =
  (* single-table ungrouped blocks are index territory, not view territory *)
  if List.length block.tables < 2 && block.group_by = [] then None
  else materialize_view env block

(* ------------------------------------------------------------------ *)
(* the fixpoint loop                                                   *)
(* ------------------------------------------------------------------ *)

type result = {
  optimal : Config.t;  (** the optimal configuration (§2.1) *)
  stats : request_stats list;  (** request counts per query (Table 1) *)
  passes : int;
}

(** Compute the optimal configuration for a workload by intercepting all
    index and view requests during optimization (§2).  [base] holds the
    structures that must be present in any configuration.  With
    [~views:false] only indexes are simulated (the "indexes only" tuning
    mode of §4). *)
let optimal_configuration catalog ~(base : Config.t) ?(views = true)
    ?(max_passes = 4) (w : Query.workload) : result =
  let queries = Query.plannable_selects w in
  let config = ref base in
  let stats : (string, string list ref * string list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let get_stat qid =
    match Hashtbl.find_opt stats qid with
    | Some s -> s
    | None ->
      let s = (ref [], ref []) in
      Hashtbl.add stats qid s;
      s
  in
  let passes = ref 0 in
  let continue = ref true in
  while !continue && !passes < max_passes do
    incr passes;
    Relax_obs.Probe.count "instrument.passes";
    let added = ref false in
    List.iter
      (fun (qid, _, sq) ->
        let env = O.Env.make catalog !config in
        let pending_indexes = ref [] and pending_views = ref [] in
        let ireqs, vreqs = get_stat qid in
        let hooks =
          {
            O.Hooks.on_index_request =
              (fun r ->
                let fp = O.Request.fingerprint r in
                if not (List.mem fp !ireqs) then ireqs := fp :: !ireqs;
                pending_indexes := indexes_for_request env r @ !pending_indexes);
            on_view_request =
              (fun block ->
                if views then begin
                  let fp = View.fingerprint block in
                  if not (List.mem fp !vreqs) then vreqs := fp :: !vreqs;
                  match view_for_request env block with
                  | Some vrc -> pending_views := vrc :: !pending_views
                  | None -> ()
                end);
          }
        in
        let _plan =
          Relax_obs.Probe.span "instrument.optimize" (fun () ->
              O.Optimizer.optimize catalog !config ~hooks sq)
        in
        List.iter
          (fun i ->
            if not (Config.mem_index !config i) then begin
              config := Config.add_index !config i;
              added := true
            end)
          !pending_indexes;
        List.iter
          (fun (v, rows, ci) ->
            if not (Config.mem_view !config v) then begin
              config := Config.add_view !config v ~rows;
              config := Config.add_index !config ci;
              added := true
            end)
          !pending_views)
      queries;
    if not !added then continue := false
  done;
  let stats =
    List.map
      (fun (qid, _, _) ->
        let ireqs, vreqs = get_stat qid in
        {
          qid;
          index_requests = List.length !ireqs;
          view_requests = List.length !vreqs;
        })
      queries
  in
  Log.debug (fun m ->
      m "optimal configuration: %d structures after %d passes"
        (Config.cardinal !config) !passes);
  { optimal = !config; stats; passes = !passes }
