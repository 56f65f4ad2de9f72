(** The statement stream: JSON-lines in, one statement per line.

    Each line is an object [{"qid": ..., "sql": ..., "weight": ...}];
    only ["sql"] is required ([qid] defaults to [""] — the window assigns
    its own stable qids anyway — and [weight] to [1.0]).  Blank lines are
    skipped; malformed lines (bad JSON, missing [sql], a weight that is
    not a finite non-negative number, SQL that does not parse) surface as
    {!Malformed} events so the daemon can count and report them without
    dying. *)

module Query = Relax_sql.Query

type event =
  | Entry of Query.entry
  | Malformed of { line : string; reason : string }

val parse_line : string -> (Query.entry, string) result

val line_of_entry : Query.entry -> string
(** The inverse: one JSONL line whose SQL round-trips through the
    parser.  Used by the bench harness to build replay files. *)

val events : in_channel -> event Seq.t
(** Lazily read the channel to end-of-file.  The sequence is ephemeral
    (consume once).  Reading a line blocks; a SIGINT/SIGTERM raised by
    {!Relax_obs.Shutdown} propagates out of the blocked read. *)
