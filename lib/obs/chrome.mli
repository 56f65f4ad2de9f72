(** Chrome trace-event JSON export (Perfetto-compatible).

    Renders a profiling recorder ({!Recorder.create} with
    [profile:true]) as the trace-event format https://ui.perfetto.dev
    loads directly: spans become "X" complete events on per-domain
    thread tracks (with span id, parent id and depth in [args]),
    counter samples become "C" events (what-if calls, cache hits and
    latency, frontier size, pool queue depth, [gc.heap_words] and
    friends), and "M" metadata events name the process and threads.
    Timestamps are microseconds relative to recorder creation; events
    are emitted in ascending timestamp order. *)

val of_recorder : Recorder.t -> Json.t
(** The [{"traceEvents": [...]}] object.  Meaningful for profiling
    recorders; a non-profiling recorder yields an empty trace. *)

val write : Recorder.t -> string -> unit
(** Serialize {!of_recorder} to [path].  Raises [Sys_error] like
    [open_out] on an unwritable path. *)
