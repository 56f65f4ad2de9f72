(** The relax-lint rule catalogue, expressed as queries over the
    interprocedural call graph and the solved effect signatures
    ({!Callgraph}, {!Effects}).

    - {b L1 domain-safety}: module-level mutable state ([ref], [Hashtbl.t],
      [Buffer.t], [Queue.t], [Stack.t], [array], [bytes], [Random.State.t])
      in any scanned module, unless the binding is an [Atomic.t] or a
      synchronization primitive.  Every module is in scope: anything a
      [Relax_parallel.Pool] task calls, however indirectly, runs on a
      worker domain.
    - {b L2 exception hygiene}: [try ... with _ ->] catch-alls and
      [with e -> ignore e] handlers.  A swallowed exception inside a pool
      task would break the order-preserving smallest-index-exception
      contract of [Pool.map_array].
    - {b L3 costing hygiene}: polymorphic [=], [==], [<>], [!=] or
      [compare] applied (or instantiated) at type [float] inside the
      costing layers, and [int]-truncating [/] inside page/byte arithmetic
      code.
    - {b L4 observability discipline}: reads of the ambient recorder slot
      outside [lib/obs]; deep layers must go through [Probe].
    - {b L5 determinism}: [Random.self_init] anywhere; wall-clock reads
      anywhere (timing routes through [Relax_obs.Clock], which carries the
      single waiver); [Hashtbl.fold]/[iter] inside the search core.
    - {b L6 parallel-purity}: a closure submitted to a
      [Relax_parallel.Pool] entry point whose {e solved} signature carries
      anything beyond atomics, mutex-guarded mutation, task-local mutation
      and [raise] — including mutation of captured state and effects
      reached through any number of call hops.
    - {b L7 costing-purity}: anything reachable from the costing entry
      modules ([Cost_bound], [Size_model], [Access_path]) that is not pure
      and deterministic (only [raise] is allowed).  The finding is placed
      at the grounded witness (the primitive that introduces the effect)
      and the message names the entry point and the call path.
    - {b L8 lock-discipline}: an atomic publish of a [*snapshot*] cell
      outside any mutex-held region (the Whatif publish-before-unlock
      protocol), and nested mutex acquisition — directly in one body, or
      through a call made while a lock is held. *)

(** Which rule scopes apply to the module under analysis (decided by the
    engine from the module's source path). *)
type scope = {
  in_obs : bool;  (** L4 exemption (the obs layer reads its own slot) *)
  in_costing : bool;  (** L3 float-comparison scope *)
  in_intdiv : bool;  (** L3 int-division scope *)
  in_core : bool;  (** L5 Hashtbl-iteration scope *)
  in_lock : bool;  (** L8 lock-discipline scope *)
}

(** The solved whole-program view the queries run against. *)
type graph = {
  sigs : Effects.signature_ Effects.SMap.t;
  node_by_id : (string, Callgraph.node) Hashtbl.t;
  resolve : Callgraph.target -> string list;
      (** [Tnode] resolves to itself; [Tkey "Mod.v"] to every node
          registered under that key (conservatively all, on collision). *)
}

val check_module : scope -> graph -> Callgraph.analysis -> Finding.t list
(** L1–L6 and L8 findings for one module, unsorted. *)

val check_costing :
  graph -> entry_modules:string list -> Callgraph.analysis list -> Finding.t list
(** L7: whole-program query over the costing entry modules' signatures,
    deduplicated by witness site and effect. *)
