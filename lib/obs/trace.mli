(** Pluggable JSON-lines trace sinks.

    A sink receives one rendered JSON object per event.  The search emits
    into whichever sink the caller attached to its {!Recorder}: a file for
    the CLI's [--trace FILE.jsonl], an in-memory buffer for tests, or a
    custom callback. *)

type sink

val file : string -> sink
(** Append-free file sink: truncates [path] and writes one line per
    event.  Raises [Sys_error] if the path cannot be opened. *)

val memory : unit -> sink * (unit -> string list)
(** An in-memory sink and a function returning the lines emitted so far,
    in emission order. *)

val custom : emit:(string -> unit) -> ?close:(unit -> unit) -> unit -> sink
(** Build a sink from callbacks; [emit] receives one rendered line
    (without the trailing newline). *)

val emit : sink -> Json.t -> unit
(** Render [json] compactly and hand it to the sink as one line. *)

val close : sink -> unit
(** Flush and release underlying resources.  Idempotent for the built-in
    sinks. *)
