(** One typedtree walk per module, producing everything the
    interprocedural analysis needs:

    - a {e call-graph node} per top-level binding, plus sub-nodes for
      let-bound and inline lambdas (so a closure has its own effect
      signature, distinct from the function that builds it);
    - {e edges} for every resolved value reference — same-module
      references resolve by binder, cross-module ones by the
      [Mod.value] suffix of the path (seen through local module
      aliases), with the worst mutable argument recorded so
      [mutates-argument] effects can be re-interpreted at the call site;
    - {e direct effects} per node, from a primitive table (atomics,
      mutexes, clocks, [Hashtbl] iteration, IO, mutation of containers
      classified as parameter / local / captured / module-level), with
      mutations inside a mutex-held region — [Mutex.protect]'s thunk or
      a [lock]/[unlock] span tracked through sequences and branches —
      degraded to [mutex-guarded-mutation];
    - {e site markers} for the flow-sensitive rules: L2 catch-alls, L3
      float comparison / int division, L4 ambient reads, L5
      nondeterminism primitives, and L8's lock-discipline shape (a mutex
      acquired while another is already held);
    - the [Relax_parallel.Pool] task-submission sites with the closure
      (or function) each one submits, for L6. *)

type target =
  | Tnode of string  (** resolved within this module *)
  | Tkey of string  (** ["Mod.value"], resolved by the engine *)

type raw_edge = {
  re_target : target;
  re_site : Effects.loc;
  re_guarded : bool;
  re_argk : Effects.argk;
}

type node = {
  n_id : string;
  n_loc : Effects.loc;
  n_toplevel : bool;
  n_direct : Effects.direct;
  n_edges : raw_edge list;
  n_key : string option;  (** cross-module resolution key *)
}

type marker =
  | M_catchall of Effects.loc
  | M_ignore of Effects.loc
  | M_float_cmp of Effects.loc * string  (** operator name *)
  | M_float_inst of Effects.loc
  | M_intdiv of Effects.loc
  | M_ambient of Effects.loc
  | M_clock of Effects.loc * string
  | M_selfinit of Effects.loc
  | M_hiter of Effects.loc * string
  | M_nested_lock of Effects.loc

type pool_site = { ps_loc : Effects.loc; ps_target : target }

type analysis = {
  a_modname : string;
  a_source : string;
  a_nodes : node list;  (** in definition order *)
  a_pool_sites : pool_site list;
  a_mutables : (string * string * Effects.loc) list;
      (** module-level mutable containers: (kind, name, loc) — the L1
          candidates, with [Atomic.t]/[Mutex.t] and [Atomic.make]-built
          bindings already excluded *)
  a_markers : marker list;
}

val canonical_modname : string -> string
(** ["Relax_optimizer__Whatif"] -> ["Whatif"] (the part after the last
    dune wrapping separator). *)

val analyze :
  modname:string -> source:string -> Typedtree.structure -> analysis
(** [modname] is the raw cmt module name; the analysis stores and keys
    nodes by its canonical form. *)
