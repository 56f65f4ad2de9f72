(** One structured lint finding: rule id, position, message, suggestion.

    Findings are printed as human-readable text for the build log and
    rendered as SARIF ({!Sarif}) for the machine-readable report. *)

type t = {
  rule : string;  (** "L1" .. "L8", or "W0" for stale waivers *)
  file : string;  (** source path as recorded in the cmt, e.g. [lib/core/search.ml] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching the compiler's own convention *)
  message : string;
  suggestion : string;
}

val make :
  rule:string ->
  file:string ->
  line:int ->
  col:int ->
  message:string ->
  suggestion:string ->
  t
(** Build a finding from an already-extracted position. *)

val compare : t -> t -> int
(** Order by file, line, column, rule — the emission order of reports. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [rule] message] plus an indented suggestion line. *)
