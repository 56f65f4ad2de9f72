(** CTT: a bottom-up physical design tuner in the classic AutoAdmin
    architecture, used as the baseline the relaxation approach is compared
    against (§1's Search Framework, faithfully including its shortcuts):

    1. {b candidate selection} — per-query heuristic candidates
       ({!Candidate}), scored one at a time against the query ("atomic
       configurations") and truncated to the top [candidates_per_query];
    2. {b merging} — a single eager pass that pairwise-merges surviving
       index candidates on the same relation (each structure merged at most
       once, as in the published tools) and view candidates with equal FROM
       sets;
    3. {b enumeration} — Greedy(m,k): exhaustively pick the best seed subset
       of size ≤ m, then greedily add the candidate with the best benefit
       until the space budget stops everything (a bottom-up search that
       starts from the empty configuration).

    The per-step trace of (what-if calls, best cost) feeds Figure 3. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog
module O = Relax_optimizer

type options = {
  space_budget : float;
  with_views : bool;
  base_config : Config.t;
  candidates_per_query : int;
  greedy_seed_size : int;  (** the [m] of Greedy(m,k) *)
  max_steps : int;
}

let default_options ?(with_views = true) ~space_budget () =
  {
    space_budget;
    with_views;
    base_config = Config.empty;
    candidates_per_query = 8;
    greedy_seed_size = 1;
    max_steps = 64;
  }

type result = {
  recommended : Config.t;
  recommended_cost : float;
  recommended_size : float;
  initial_cost : float;
  improvement : float;
  candidate_count : int;  (** candidates surviving selection + merging *)
  trace : (int * float) list;
      (** (cumulative optimizer calls, best cost) after each greedy step *)
  elapsed_s : float;
}

(* score a candidate for one query: improvement of the query's cost when
   the candidate is added alone to the base configuration *)
let candidate_benefit whatif opts (qid, _, sq) cand =
  let config = Candidate.add_to_config opts.base_config cand in
  let base = (O.Whatif.plan_select whatif opts.base_config ~qid sq).cost in
  let with_c = (O.Whatif.plan_select whatif config ~qid sq).cost in
  base -. with_c

(* step 1: per-query candidate selection with atomic-configuration scoring *)
let select_candidates whatif catalog opts selects : Candidate.t list =
  let env = O.Env.make catalog opts.base_config in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ((_, _, sq) as entry) ->
      let cands = Candidate.for_query env ~with_views:opts.with_views sq in
      let scored =
        List.filter_map
          (fun c ->
            let b = candidate_benefit whatif opts entry c in
            if b > 0.0 then Some (c, b) else None)
          cands
      in
      let top =
        List.sort (fun (_, b1) (_, b2) -> Float.compare b2 b1) scored
        |> List.filteri (fun i _ -> i < opts.candidates_per_query)
        |> List.map fst
      in
      List.filter
        (fun c ->
          let k = Candidate.id c in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        top)
    selects

(* step 2: one eager merging pass; each candidate participates in at most
   one merge (the restriction of reference [2] in the paper) *)
let merge_pass catalog (cands : Candidate.t list) : Candidate.t list =
  let module Index = Relax_physical.Index in
  let module View = Relax_physical.View in
  let used = Hashtbl.create 16 in
  let merged = ref [] in
  let arr = Array.of_list cands in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (not (Hashtbl.mem used i)) && not (Hashtbl.mem used j) then begin
        match (arr.(i), arr.(j)) with
        | Candidate.Cand_index a, Candidate.Cand_index b
          when Index.owner a = Index.owner b
               && (not a.clustered) && not b.clustered -> (
          match (a.keys, b.keys) with
          | ka :: _, kb :: _ when Relax_sql.Types.Column.equal ka kb ->
            (* industrial shortcut: only merge indexes sharing the leading
               key column *)
            let m = Index.merge a b in
            let sm = Candidate.size catalog (Cand_index m) in
            let sa = Candidate.size catalog (Cand_index a) in
            let sb = Candidate.size catalog (Cand_index b) in
            if sm < sa +. sb then begin
              Hashtbl.replace used i ();
              Hashtbl.replace used j ();
              merged := Candidate.Cand_index m :: !merged
            end
          | _ -> ())
        | Candidate.Cand_view (va, ra, ia), Candidate.Cand_view (vb, _, ib)
          when (View.definition va).tables = (View.definition vb).tables -> (
          match View.merge va vb with
          | Some { merged = vm; remap1; remap2 } ->
            let promote remap idx =
              List.filter_map
                (fun (i : Index.t) ->
                  let keys =
                    List.filter_map remap i.keys
                  in
                  match keys with
                  | [] -> None
                  | keys ->
                    Some
                      (Index.make ~clustered:i.clustered ~keys
                         ~suffix:Relax_sql.Types.Column_set.empty ()))
                idx
            in
            let idxs =
              match promote remap1 ia @ promote remap2 ib with
              | [] -> []
              | first :: rest ->
                Index.promote first
                :: List.map Index.demote rest
            in
            if idxs <> [] then begin
              Hashtbl.replace used i ();
              Hashtbl.replace used j ();
              merged := Candidate.Cand_view (vm, ra, idxs) :: !merged
            end
          | None -> ())
        | _ -> ()
      end
    done
  done;
  let survivors =
    List.filteri (fun i _ -> not (Hashtbl.mem used i)) cands
  in
  survivors @ !merged

(** Run the bottom-up baseline on a workload. *)
let tune (catalog : Catalog.t) (workload : Query.workload) (opts : options) :
    result =
  let t0 = Relax_obs.Clock.now () in
  let whatif = O.Whatif.create catalog in
  let selects = Query.plannable_selects workload in
  let initial_cost = O.Whatif.workload_cost whatif opts.base_config workload in
  let cands = select_candidates whatif catalog opts selects in
  let cands = merge_pass catalog cands in
  let cost config = O.Whatif.workload_cost whatif config workload in
  let size config = Config.total_bytes catalog config in
  let trace = ref [] in
  let record cost =
    let calls, _ = O.Whatif.stats whatif in
    trace := (calls, cost) :: !trace
  in
  (* Greedy(m,k): exhaust subsets of size <= m for the seed *)
  let rec seeds depth acc current remaining =
    if depth = 0 then current :: acc
    else
      current
      :: List.concat
           (List.mapi
              (fun i c ->
                seeds (depth - 1) acc
                  (c :: current)
                  (List.filteri (fun j _ -> j > i) remaining))
              remaining)
  in
  let seed_sets =
    seeds (min opts.greedy_seed_size 2) [] [] cands
    |> List.filter (fun s -> s <> [])
  in
  let config_of cs =
    List.fold_left Candidate.add_to_config opts.base_config cs
  in
  let best_seed =
    List.fold_left
      (fun (bc, bcost, bset) set ->
        let cfg = config_of set in
        if size cfg > opts.space_budget then (bc, bcost, bset)
        else
          let c = cost cfg in
          if c < bcost then (cfg, c, set) else (bc, bcost, bset))
      (opts.base_config, initial_cost, [])
      seed_sets
  in
  let config, best_cost, chosen = best_seed in
  record best_cost;
  (* greedy additions *)
  let rec greedy config best_cost chosen steps =
    if steps >= opts.max_steps then (config, best_cost)
    else begin
      let remaining =
        List.filter
          (fun c -> not (List.exists (fun c' -> Candidate.id c' = Candidate.id c) chosen))
          cands
      in
      let next =
        List.fold_left
          (fun acc c ->
            let cfg = Candidate.add_to_config config c in
            if size cfg > opts.space_budget then acc
            else
              let cst = cost cfg in
              match acc with
              | Some (_, bcst, _) when bcst <= cst -> acc
              | _ when cst < best_cost -> Some (cfg, cst, c)
              | _ -> acc)
          None remaining
      in
      match next with
      | None -> (config, best_cost)
      | Some (cfg, cst, c) ->
        record cst;
        greedy cfg cst (c :: chosen) (steps + 1)
    end
  in
  let config, best_cost = greedy config best_cost chosen 0 in
  {
    recommended = config;
    recommended_cost = best_cost;
    recommended_size = size config;
    initial_cost;
    improvement =
      Relax_tuner.Tuner.improvement ~initial:initial_cost ~recommended:best_cost;
    candidate_count = List.length cands;
    trace = List.rev !trace;
    elapsed_s = Relax_obs.Clock.elapsed_s ~since:t0;
  }
