(** The what-if costing layer.

    Hypothetical configurations are plain values here, so "simulating" a
    structure is free; what this layer adds is memoization: a query's plan
    only depends on the sub-configuration relevant to its tables, so two
    configurations that agree there share one optimization call.  This is
    the mechanism behind the paper's observation that a relaxed
    configuration only requires re-optimizing the queries that used the
    replaced structures.

    One plan table, one mutex.  Lookups and inserts take the lock; an
    optimization runs outside it (it can take milliseconds).  Concurrent
    requests for the same key are deduplicated through an in-flight set:
    the first requester optimizes, later ones wait on [resolved] and count
    a cache hit, so the same key never pays two optimizer calls whatever
    the parallelism.  Probes fire after the lock is released.  The plan
    cache is the layer's only memory. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog

type t = {
  catalog : Catalog.t;
  lock : Mutex.t;  (** guards every field below *)
  resolved : Condition.t;
      (** broadcast under [lock] when an in-flight optimization lands *)
  plans : (string, Plan.t) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  mutable optimizer_calls : int;  (** optimization calls actually executed *)
  mutable cache_hits : int;
}

let create catalog =
  {
    catalog;
    lock = Mutex.create ();
    resolved = Condition.create ();
    plans = Hashtbl.create 512;
    inflight = Hashtbl.create 8;
    optimizer_calls = 0;
    cache_hits = 0;
  }

let stats t = Mutex.protect t.lock (fun () -> (t.optimizer_calls, t.cache_hits))
let cached_plans t = Mutex.protect t.lock (fun () -> Hashtbl.length t.plans)

let key config ~qid ~tables =
  qid ^ "#" ^ Config.fingerprint_for_tables config tables

(* the workload qid behind a cache key: strip the
   select-component suffix, then anything from the '#' fingerprint
   separator on *)
let owner_qid k =
  let k = match String.index_opt k '#' with
    | Some i -> String.sub k 0 i
    | None -> k
  in
  Query.base_qid k

(** Evict every cached plan whose owning workload qid fails [keep].  The
    daemon calls this on window rotation: statements that left the
    sliding window stop pinning plans, which is
    what keeps a long-running service's footprint proportional to the
    window, not the history.  DML select components ([qid ^ ":select"])
    are evicted with their owner. *)
let evict t ~keep =
  Mutex.protect t.lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun k p -> if keep (owner_qid k) then Some p else None)
        t.plans)

(* --- plan lookup and optimization --------------------------------------- *)

(* what a locked lookup decided, with the counter value to report once
   the lock is released *)
type lookup = Hit of Plan.t * int | Miss of int

(** Memoized plan for [qid] under [config], when one is already cached.
    Never optimizes and counts nothing: a peek for the frugal evaluation
    tier, which substitutes a bound-costed plan on a miss instead of
    paying the optimizer call. *)
let find_cached t config ~qid ~tables : Plan.t option =
  let k = key config ~qid ~tables in
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.plans k)

(** Optimized plan for a select query under [config] (memoized). *)
let plan_select t config ~qid (sq : Query.select_query) : Plan.t =
  let k = key config ~qid ~tables:sq.body.tables in
  let lookup =
    Mutex.protect t.lock (fun () ->
        (* wait out an in-flight optimization of the same key rather
           than duplicating its optimizer call *)
        let rec await () =
          match Hashtbl.find_opt t.plans k with
          | Some p -> Some p
          | None when Hashtbl.mem t.inflight k ->
            Condition.wait t.resolved t.lock;
            await ()
          | None -> None
        in
        match await () with
        | Some p ->
          t.cache_hits <- t.cache_hits + 1;
          Hit (p, t.cache_hits)
        | None ->
          Hashtbl.replace t.inflight k ();
          t.optimizer_calls <- t.optimizer_calls + 1;
          Miss t.optimizer_calls)
  in
  match lookup with
  | Hit (p, hits) ->
    Relax_obs.Probe.cache_hit ~qid;
    Relax_obs.Probe.counter "whatif.cache_hits" (float_of_int hits);
    p
  | Miss calls -> (
    let finish plan =
      Mutex.protect t.lock (fun () ->
          Option.iter (Hashtbl.replace t.plans k) plan;
          Hashtbl.remove t.inflight k;
          Condition.broadcast t.resolved)
    in
    match
      Relax_obs.Probe.what_if_call ~qid;
      Relax_obs.Probe.counter "whatif.calls" (float_of_int calls);
      Relax_obs.Probe.span "whatif.optimize" (fun () ->
          Optimizer.optimize t.catalog config sq)
    with
    | p ->
      finish (Some p);
      p
    | exception e ->
      finish None;
      raise e)

(** Cost of one workload entry under [config]: plan cost for selects;
    select-component cost plus shell cost for updates (§3.6). *)
let entry_cost t config (e : Query.entry) : float =
  match e.stmt with
  | Select sq -> (plan_select t config ~qid:e.qid sq).cost
  | Dml d ->
    let select_part, _shell = Query.split_update d in
    let select_cost =
      match select_part with
      | None -> 0.0
      | Some sq -> (plan_select t config ~qid:(Query.select_qid e.qid) sq).cost
    in
    let env = Env.make t.catalog config in
    select_cost +. Update_cost.shell_cost env config d

(** Weighted total workload cost under [config]. *)
let workload_cost t config (w : Query.workload) : float =
  List.fold_left (fun acc e -> acc +. (e.Query.weight *. entry_cost t config e)) 0.0 w

(** Per-entry costs, weighted. *)
let per_entry_costs t config (w : Query.workload) : (string * float) list =
  List.map (fun (e : Query.entry) -> (e.qid, e.weight *. entry_cost t config e)) w
