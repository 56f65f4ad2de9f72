(** The what-if costing layer.

    Hypothetical configurations are plain values here, so "simulating" a
    structure is free; what this layer adds is memoization: a query's plan
    only depends on the sub-configuration relevant to its tables, so two
    configurations that agree there share one optimization call.  This is
    the mechanism behind the paper's observation that a relaxed
    configuration only requires re-optimizing the queries that used the
    replaced structures.

    The plan cache is sharded by key hash.  Reads are lock-free: each
    shard publishes a read-mostly persistent-map snapshot in an
    [Atomic.t], so a cache hit costs one atomic load and a map lookup —
    no mutex, whatever the number of reading domains.  Writers insert
    into the shard's hashtable under its mutex and publish the extended
    snapshot before releasing it, so a snapshot read never observes less
    than the last completed insert.  An optimization runs outside any
    shard lock (it can take milliseconds); concurrent requests for the
    same key are deduplicated through a per-shard in-flight set: the
    first requester optimizes, later ones wait on the shard's condition
    variable and count a cache hit, so the same key never pays two
    optimizer calls whatever the parallelism.  The plan cache is the
    layer's only memory. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog
module Smap = Map.Make (String)

type shard = {
  shard_lock : Mutex.t;
  resolved : Condition.t;
      (** signalled under [shard_lock] when an in-flight optimize lands *)
  plans : (string, Plan.t) Hashtbl.t;  (** source of truth, under the lock *)
  snapshot : Plan.t Smap.t Atomic.t;
      (** read-mostly published copy: lock-free lookups.  Extended under
          [shard_lock] on every insert, so it never trails a completed
          write. *)
  inflight : (string, unit) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type t = {
  catalog : Catalog.t;
  shards : shard array;
  optimizer_calls : int Atomic.t;  (** optimization calls actually executed *)
  cache_hits : int Atomic.t;
}

let shard_bits = 4
let shard_count = 1 lsl shard_bits

let create catalog =
  {
    catalog;
    shards =
      Array.init shard_count (fun _ ->
          {
            shard_lock = Mutex.create ();
            resolved = Condition.create ();
            plans = Hashtbl.create 32;
            snapshot = Atomic.make Smap.empty;
            inflight = Hashtbl.create 4;
            hits = Atomic.make 0;
            misses = Atomic.make 0;
          });
    optimizer_calls = Atomic.make 0;
    cache_hits = Atomic.make 0;
  }

let stats t = (Atomic.get t.optimizer_calls, Atomic.get t.cache_hits)

let cached_plans t =
  Array.fold_left
    (fun acc sh ->
      acc + Mutex.protect sh.shard_lock (fun () -> Hashtbl.length sh.plans))
    0 t.shards

let key config ~qid ~tables =
  qid ^ "#" ^ Config.fingerprint_for_tables config tables

let shard_index k = Hashtbl.hash k land (shard_count - 1)
let series_of_shard i = Printf.sprintf "shard%02d" i

(* publish [k -> p] into the shard: hashtable insert and snapshot
   extension under the same critical section *)
let publish_plan sh k p =
  Mutex.protect sh.shard_lock (fun () ->
      Hashtbl.replace sh.plans k p;
      Atomic.set sh.snapshot (Smap.add k p (Atomic.get sh.snapshot)))

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
  Array.iter
    (fun sh ->
      Mutex.protect sh.shard_lock (fun () ->
          let doomed =
            Hashtbl.fold
              (fun k _ acc -> if keep (owner_qid k) then acc else k :: acc)
              sh.plans []
          in
          List.iter (Hashtbl.remove sh.plans) doomed;
          Atomic.set sh.snapshot
            (List.fold_left
               (fun m k -> Smap.remove k m)
               (Atomic.get sh.snapshot) doomed)))
    t.shards

(* --- plan lookup and optimization --------------------------------------- *)

(* Counter increments read back through [fetch_and_add], never a
   separate [Atomic.get]: under contention incr-then-get pairs emit
   duplicated (non-monotonic) values into the counter tracks — the
   double-counting the first real multi-core run surfaced. *)
let count_hit t sh i ~qid =
  Atomic.incr t.cache_hits;
  let shard_hits = 1 + Atomic.fetch_and_add sh.hits 1 in
  Relax_obs.Probe.cache_hit ~qid;
  Relax_obs.Probe.counter_series "whatif.cache_hits"
    ~series:(series_of_shard i)
    (float_of_int shard_hits)

(** Memoized plan for [qid] under [config], when one is already cached.
    Never optimizes and counts nothing: a peek for the frugal evaluation
    tier, which substitutes a bound-costed plan on a miss instead of
    paying the optimizer call.  Lock-free: one atomic snapshot load. *)
let find_cached t config ~qid ~tables : Plan.t option =
  let k = key config ~qid ~tables in
  let sh = t.shards.(shard_index k) in
  Smap.find_opt k (Atomic.get sh.snapshot)

(** Optimized plan for a select query under [config] (memoized). *)
let plan_select t config ~qid (sq : Query.select_query) : Plan.t =
  let k = key config ~qid ~tables:sq.body.tables in
  let i = shard_index k in
  let sh = t.shards.(i) in
  (* fast path: the published snapshot, no lock *)
  match Smap.find_opt k (Atomic.get sh.snapshot) with
  | Some p ->
    count_hit t sh i ~qid;
    p
  | None -> (
    Mutex.lock sh.shard_lock;
    (* wait out any in-flight optimization of the same key rather than
       duplicating its optimizer call (request-level dedup) *)
    let rec await () =
      match Hashtbl.find_opt sh.plans k with
      | Some p -> Some p
      | None ->
        if Hashtbl.mem sh.inflight k then begin
          Condition.wait sh.resolved sh.shard_lock;
          await ()
        end
        else None
    in
    match await () with
    | Some p ->
      Mutex.unlock sh.shard_lock;
      count_hit t sh i ~qid;
      p
    | None ->
      Hashtbl.add sh.inflight k ();
      Mutex.unlock sh.shard_lock;
      let finalize () =
        Mutex.protect sh.shard_lock (fun () ->
            Hashtbl.remove sh.inflight k;
            Condition.broadcast sh.resolved)
      in
      match
        let calls = 1 + Atomic.fetch_and_add t.optimizer_calls 1 in
        let shard_misses = 1 + Atomic.fetch_and_add sh.misses 1 in
        Relax_obs.Probe.what_if_call ~qid;
        Relax_obs.Probe.counter "whatif.calls" (float_of_int calls);
        Relax_obs.Probe.counter_series "whatif.cache_misses"
          ~series:(series_of_shard i)
          (float_of_int shard_misses);
        Relax_obs.Probe.span "whatif.optimize" (fun () ->
            Optimizer.optimize t.catalog config sq)
      with
      | p ->
        publish_plan sh k p;
        finalize ();
        p
      | exception e ->
        finalize ();
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
