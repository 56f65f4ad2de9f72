(** JSON-lines trace sinks: file, in-memory (for tests), or custom. *)

type sink = { emit_line : string -> unit; close_sink : unit -> unit }

let custom ~emit ?(close = fun () -> ()) () =
  { emit_line = emit; close_sink = close }

let file path =
  let oc = open_out path in
  let closed = ref false in
  {
    emit_line =
      (fun line ->
        if not !closed then
          (* one write call per line: OCaml signal handlers only run at
             safe points (allocations), and a single [output_string] of a
             pre-built string performs none — so a signal raised from a
             handler (see {!Shutdown}) can never land between a line and
             its newline and leave a torn JSONL record in the buffer *)
          output_string oc (line ^ "\n"));
    close_sink =
      (fun () ->
        if not !closed then begin
          closed := true;
          close_out oc
        end);
  }

let memory () =
  let lines = ref [] in
  let sink = custom ~emit:(fun l -> lines := l :: !lines) () in
  (sink, fun () -> List.rev !lines)

let emit sink json = sink.emit_line (Json.to_string json)
let close sink = sink.close_sink ()
