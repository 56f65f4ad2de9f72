(** The lint engine: load cmts, build the whole-program call graph,
    solve effect signatures to a fixpoint, scope and run the rules,
    apply waivers, and report the ones that suppress nothing (W0).

    L1 runs on every scanned module: any of them can be called from a
    [Relax_parallel.Pool] task and so run on a worker domain.  L6–L8 run
    over the solved call graph, so an effect introduced two call hops
    away — or smuggled through a captured mutable — still reaches the
    rule.

    Modules under [obs_dirs] are {e sanctioned}: their direct effects
    move to the sanctioned side of every signature they flow into.  The
    observability layer's domain-safety is established separately (its
    own rule scope, the TSan job, the single waived clock read), so a
    probe emitted from a pool task does not fail L6. *)

type config = {
  root : string;  (** directory scanned (recursively) for [.cmt] files *)
  src_root : string;
      (** prefix against which cmt-recorded source paths resolve (for
          reading waiver comments); [.] when running from the build root *)
  obs_dirs : string list;  (** sanctioned instrumentation layer, exempt L4 *)
  costing_dirs : string list;  (** L3 float-comparison scope *)
  intdiv_dirs : string list;  (** L3 int-division scope *)
  core_dirs : string list;  (** L5 Hashtbl-iteration scope *)
  lock_dirs : string list;  (** L8 lock-discipline scope *)
  costing_entry_modules : string list;
      (** canonical module names whose public bindings seed L7 *)
}

val default : root:string -> config
(** The repository layout: obs = [lib/obs]; costing = [lib/core],
    [lib/physical], [lib/check]; int-division = [lib/physical]; core =
    [lib/core]; locks = [lib/optimizer], [lib/parallel]; costing entry
    modules = [Cost_bound], [Size_model], [Access_path];
    [src_root = "."]. *)

type result = {
  findings : Finding.t list;  (** unwaived, sorted by position *)
  waived : Finding.t list;  (** suppressed by inline waivers *)
  modules_checked : int;
  signatures : Effects.signature_ Effects.SMap.t;
      (** the solved signature of every call-graph node, by node id *)
}

val run : config -> result
