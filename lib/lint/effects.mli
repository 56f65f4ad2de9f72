(** The effect lattice and the interprocedural fixpoint.

    Every function (graph node) gets an {e effect signature}: the set of
    observable effects it may perform, directly or through anything it
    calls.  The atoms are the eight effect classes the parallel-search
    soundness argument cares about (plus two mutation refinements):

    - [Mutates_shared]: writes a module-level mutable container, of this
      module or another (the state two worker domains could race on);
    - [Mutates_args]: writes a mutable value received as an argument —
      the {e caller} decides whether that value is shared;
    - [Mutates_guarded]: a write performed while a [Mutex] is held
      (either lexically inside [Mutex.protect]'s thunk or between
      [Mutex.lock] and [Mutex.unlock] on the same control path);
    - [Acquires_mutex], [Atomic_read], [Atomic_write];
    - [Reads_clock]: [Unix.gettimeofday] / [Unix.time] / [Sys.time],
      directly or transitively;
    - [Nondet]: nondeterministic iteration or seeding
      ([Hashtbl.fold]/[iter], [Random.self_init]);
    - [Reads_ambient]: the ambient recorder slot;
    - [Raises] and [Io].

    Mutation of a value {e captured} from an enclosing function is not a
    bit but a set of owner node ids ([s_cap_param] / [s_cap_local]):
    when the signature of a closure flows back into the very function
    that owns the captured binding, the capture is local again and
    dissolves (or becomes [Mutates_args] when the owner received it as a
    parameter).  A closure whose capture set is non-empty at a
    [Relax_parallel.Pool] boundary is exactly the "mutable value
    smuggled into a task thunk" race.

    Each effect is tracked twice: [flagged] (originating in ordinary
    code) and [sanctioned] (originating inside the observability layer,
    whose domain-safety is established separately — by its own lint
    scope, the TSan job and the single waived clock read).  Rules query
    the flagged side. *)

type eff =
  | Mutates_shared
  | Mutates_args
  | Mutates_guarded
  | Acquires_mutex
  | Atomic_read
  | Atomic_write
  | Reads_clock
  | Nondet
  | Reads_ambient
  | Raises
  | Io

val eff_name : eff -> string
(** Stable kebab-case names ("mutates-shared-state", "reads-clock", ...)
    used in finding messages. *)

val captured_name : string
(** The pseudo-effect name shown when a capture set is non-empty:
    ["mutates-captured-state"]. *)

(** Effect sets as bit masks. *)
module Set : sig
  type t

  val empty : t
  val singleton : eff -> t
  val add : eff -> t -> t
  val mem : eff -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val is_empty : t -> bool
  val of_list : eff list -> t
  val to_list : t -> eff list
  (** In declaration order — deterministic. *)
end

module SSet : Stdlib.Set.S with type elt = string
module SMap : Stdlib.Map.S with type key = string

type loc = { file : string; line : int; col : int }

type witness = {
  w_eff : eff;
  w_detail : string;  (** the primitive, e.g. ["Unix.gettimeofday"] *)
  w_loc : loc;
}

(** Direct (intraprocedural) effect information for one node. *)
type direct = {
  d_flagged : Set.t;
  d_sanctioned : Set.t;
  d_cap_param : SSet.t;  (** owners whose {e parameter} this node mutates *)
  d_cap_local : SSet.t;  (** owners whose {e local} this node mutates *)
  d_witnesses : (eff * witness) list;  (** first flagged site per effect *)
  d_cap_witness : witness option;  (** first captured-mutation site *)
}

val direct_empty : direct

(** How a call site relates the callee's [Mutates_args] to the caller:
    the "worst" mutable-container argument passed. *)
type argk =
  | Arg_none  (** no mutable ident argument *)
  | Arg_args  (** a parameter of the caller *)
  | Arg_captured_param of string  (** a parameter captured from [owner] *)
  | Arg_captured_local of string  (** a local captured from [owner] *)
  | Arg_shared  (** a module-level mutable *)

type edge = {
  callee : string;
  site : loc;
  guarded : bool;  (** the call happens while a mutex is held *)
  argk : argk;
}

(** Where a solved effect came from: a direct witness, or a call edge
    (with the callee-side effect, so chains can be reconstructed across
    the [Mutates_args] transformations). *)
type prov =
  | Direct of witness
  | Via of { callee : string; site : loc; src : [ `Eff of eff | `Cap ] }

type signature_ = {
  s_flagged : Set.t;
  s_sanctioned : Set.t;
  s_cap_param : SSet.t;
  s_cap_local : SSet.t;
  s_prov : (eff * prov) list;  (** per flagged effect *)
  s_cap_prov : prov option;
}

val captured : signature_ -> bool
(** Non-empty capture set (either kind). *)

val solve :
  nodes:(string * direct) list -> edges:edge list SMap.t -> signature_ SMap.t
(** Propagate direct effects over the call graph to a fixpoint.
    Deterministic: nodes are processed in sorted order and edges in list
    order, and the first acquisition of an effect fixes its provenance.
    Monotone: adding a node, an edge, or a direct effect can only grow
    signatures (the property [test/suite_effects.ml] checks). *)

val chain :
  signature_ SMap.t -> string -> [ `Eff of eff | `Cap ] -> string list * witness option
(** [chain sigs node (`Eff e)] follows provenance from [node] to the
    direct witness of [e]: the node ids traversed (starting with [node])
    and the witness when the chain is grounded. *)

val names : Set.t -> cap:bool -> string list
(** Sorted effect names of a set, with [captured_name] appended when
    [cap]. *)
