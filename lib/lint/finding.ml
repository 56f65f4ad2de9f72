type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  suggestion : string;
}

let make ~rule ~file ~line ~col ~message ~suggestion =
  { rule; file; line; col; message; suggestion }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let pp ppf f =
  Fmt.pf ppf "%s:%d:%d: [%s] %s@.    suggestion: %s" f.file f.line f.col
    f.rule f.message f.suggestion
