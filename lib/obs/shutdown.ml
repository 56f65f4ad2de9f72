(** Graceful shutdown on SIGINT/SIGTERM.

    A CLI run killed mid-flight used to drop its buffered observability:
    trace sinks hold JSONL lines in channel buffers, Chrome exports are
    written only at the end, and [exit]-less process death flushes none of
    it.  The fix is deliberately exception-shaped: the installed handler
    {e raises} {!Signalled} from the signal's safe point, so the stack
    unwinds through every [Fun.protect] on the way out — closing sinks,
    flushing channels, shutting worker pools down — exactly as on a normal
    return.  Long-running services (the continuous-tuning daemon) catch
    {!Signalled} at their loop head instead and run their final-delta
    path.

    OCaml runs signal handlers only at safe points, and the trace sinks
    write whole lines in single allocation-free calls, so an unwind can
    never tear a JSONL record.

    Handlers are process-global; install once, from the main domain, near
    the top of [main]. *)

exception Signalled of int
(** The signal number that interrupted the run ([Sys.sigint] /
    [Sys.sigterm]). *)

let exit_code signal = if signal = Sys.sigint then 130 else 143

let installed = Atomic.make false

(** Install SIGINT and SIGTERM handlers that raise {!Signalled}.  A second
    signal during cleanup terminates the process with the conventional
    128+N code instead of unwinding twice.  Idempotent. *)
let install () =
  if not (Atomic.exchange installed true) then begin
    let fired = ref false in
    let handle signal =
      if !fired then Stdlib.exit (exit_code signal)
      else begin
        fired := true;
        raise (Signalled signal)
      end
    in
    Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)
  end

(** [protect f] runs [f ()], turning a {!Signalled} escape into an
    [exit (128+N)] — after the unwind has already closed every
    [Fun.protect]-guarded resource inside [f].  The standard wrapper for
    one-shot CLI mains. *)
let protect f =
  match f () with
  | v -> v
  | exception Signalled signal -> Stdlib.exit (exit_code signal)
