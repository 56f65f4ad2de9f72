(** Inline lint waivers.

    A finding is suppressed by a comment of the form

    {v (* relax-lint: allow L1 reason why this is safe *) v}

    placed on the same line as the flagged expression or on the line
    directly above it.  Several rules can be waived at once by separating
    their ids with commas ([allow L1,L5 ...]).  The reason text is
    mandatory by convention but not enforced; it is what reviewers read. *)

type t
(** The waivers of one source file. *)

val empty : t

val load : string -> t
(** Parse the waiver comments of a source file; a missing or unreadable
    file yields {!empty} (the finding then stands). *)

val covers : t -> rule:string -> line:int -> bool
(** Is a finding of [rule] at [line] covered by a waiver on that line or
    the line above it? *)

val entries : t -> (int * string list) list
(** All waiver comments as [(line, waived rule ids)], sorted by line —
    the input of the W0 stale-waiver check. *)
