(** JSONL statement stream (see the mli). *)

module Query = Relax_sql.Query
module Json = Relax_obs.Json

type event =
  | Entry of Query.entry
  | Malformed of { line : string; reason : string }

(* a weight feeds the window's sums and the cost totals, so it must be a
   finite, non-negative number; absent means 1.0 *)
let weight_of j =
  match Json.member "weight" j with
  | None -> Ok 1.0
  | Some v -> (
    match Json.to_float v with
    | Some w when Float.is_finite w && w >= 0.0 -> Ok w
    | Some w ->
      Error (Printf.sprintf {|"weight" %g is negative or not finite|} w)
    | None -> Error ({|"weight" must be a number, got |} ^ Json.to_string v))

let parse_line line =
  match Json.of_string line with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok j -> (
    match (Json.member "sql" j, weight_of j) with
    | Some (Json.String sql), Ok weight -> (
      let qid =
        match Json.member "qid" j with
        | Some (Json.String q) -> q
        | _ -> ""
      in
      match Relax_sql.Parser.statement sql with
      | stmt -> Ok { Query.qid; weight; stmt }
      | exception Relax_sql.Parser.Parse_error msg ->
        Error ("SQL parse error: " ^ msg)
      | exception Relax_sql.Lexer.Lex_error (msg, pos) ->
        Error (Printf.sprintf "SQL lex error at %d: %s" pos msg))
    | Some (Json.String _), (Error _ as e) -> e
    | Some _, _ -> Error {|"sql" must be a string|}
    | None, _ -> Error {|missing "sql" field|})

let line_of_entry (e : Query.entry) =
  Json.to_string
    (Json.Obj
       [
         ("qid", Json.String e.qid);
         ("sql", Json.String (Relax_sql.Pretty.statement_to_string e.stmt));
         ("weight", Json.Float e.weight);
       ])

let events ic =
  let rec next () =
    match input_line ic with
    | exception End_of_file -> Seq.Nil
    | line ->
      let line = String.trim line in
      if line = "" then next ()
      else
        let ev =
          match parse_line line with
          | Ok e -> Entry e
          | Error reason -> Malformed { line; reason }
        in
        Seq.Cons (ev, next)
  in
  next
