(** Instrumentation points for the ambient recorder.

    Every function here is a no-op (one ref read) when no recorder is
    installed, so the optimizer and search stay un-threaded: deep layers
    call [Probe.count], [Probe.span] etc. and the numbers land in
    whichever {!Recorder} the current tuning run installed. *)

val active : unit -> bool
(** Is a recorder installed? *)

val what_if_call : qid:string -> unit
(** A what-if optimization was actually executed (cache miss).  Also
    emits a [{"event":"whatif",...}] trace line, so the trace's whatif
    event count always equals the metrics table's call count. *)

val cache_hit : qid:string -> unit
val plan_reoptimized : unit -> unit
val plan_patched : unit -> unit
val shortcut_abort : unit -> unit
val iteration : unit -> unit
val config_evaluated : unit -> unit
val transform_generated : kind:string -> unit
val transform_applied : kind:string -> unit
val pool_size : int -> unit
(** Record the configuration pool's size after an iteration (also sampled
    into the [search.pool] counter track when profiling). *)

val count : string -> unit
val count_n : string -> int -> unit

val observe : string -> float -> unit
(** Record one duration (seconds) in the ambient recorder's named
    latency histogram (pool task wait/run times, ...). *)

val counter : string -> float -> unit
(** Sample a single-series counter track (profiling mode only). *)

val thread_name : string -> unit
(** Name the calling domain's thread track in the Chrome export. *)

val span : string -> (unit -> 'a) -> 'a
(** Run [f] inside a named span of the ambient recorder; plain call when
    none is installed. *)

val emit : (unit -> Json.t) -> unit
(** Emit one trace event; the thunk is forced only when the ambient
    recorder has a sink. *)
