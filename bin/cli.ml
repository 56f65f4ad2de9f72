(** What [tune] and [relaxd] share: the database flags, the loader of
    schema and workload files, and the numeric flags both take.

    Every input file ends the same way when it cannot be used: unreadable,
    not a valid CREATE TABLE or SQL script, or a statement naming a table
    or column the catalog lacks — one line [PROG: FILE: reason] on stderr
    and exit 2.  A malformed or out-of-range flag value is Cmdliner's
    exit 124. *)

module Query = Relax_sql.Query
module W = Relax_workloads
open Cmdliner

let prog = Filename.(remove_extension (basename Sys.executable_name))

let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s: %s@." prog msg;
      exit 2)
    fmt

(* --- input files --------------------------------------------------------- *)

(** Fail on [Sys_error msg] from opening or reading [path]. *)
let sys_error path msg =
  (* the message usually names the path already *)
  let prefix = path ^ ": " in
  let n = String.length prefix in
  fail "%s: %s" path
    (if String.starts_with ~prefix msg then
       String.sub msg n (String.length msg - n)
     else msg)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> sys_error path msg

let parse_file parse path =
  match parse (read_file path) with
  | v -> v
  | exception
      ( Relax_sql.Parser.Parse_error msg
      | Relax_catalog.Schema_parser.Schema_error msg ) ->
    fail "%s: %s" path msg
  | exception Relax_sql.Lexer.Lex_error (msg, pos) ->
    fail "%s: %s at byte %d" path msg pos

type db = Tpch | Ds1 | Bench
type source = { db : db; scale : float; schema_file : string option }

let schema_of_db ~scale = function
  | Tpch -> W.Bench_db.tpch_schema ~scale ()
  | Ds1 -> W.Star.schema ~scale ()
  | Bench -> W.Bench_db.schema ~scale ()

(** The catalog of [src], and the workload read from [file] when given,
    else [default] of the schema. *)
let load ?file src default =
  let schema =
    match src.schema_file with
    | None -> schema_of_db ~scale:src.scale src.db
    | Some path ->
      parse_file
        (fun text ->
          let catalog, joins = Relax_catalog.Schema_parser.parse text in
          { W.Generator.catalog; joins })
        path
  in
  let workload =
    match file with
    | None -> default schema
    | Some path ->
      let workload = parse_file Relax_sql.Parser.workload path in
      List.iter
        (fun (e : Query.entry) ->
          match Relax_catalog.Catalog.unknown_names schema.catalog e.stmt with
          | [] -> ()
          | unknown ->
            fail "%s: %s: unknown %s" path e.qid (String.concat ", " unknown))
        workload;
      workload
  in
  (schema.catalog, workload)

(* --- converters ---------------------------------------------------------- *)

(* Numeric flags are range-checked where they are parsed: a value out of
   range is a command-line error (exit 124), like a malformed one. *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
  in
  Arg.conv (parse, Fmt.int)

let float_where ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
  in
  Arg.conv (parse, Fmt.float)

let positive = float_where ~expected:"a number > 0" (fun f -> f > 0.0)

(* --- shared flags -------------------------------------------------------- *)

let source =
  let db =
    let parse = function
      | "tpch" -> Ok Tpch
      | "ds1" -> Ok Ds1
      | "bench" -> Ok Bench
      | s -> Error (`Msg ("unknown database: " ^ s))
    in
    let print ppf d =
      Fmt.string ppf
        (match d with Tpch -> "tpch" | Ds1 -> "ds1" | Bench -> "bench")
    in
    Arg.(
      value
      & opt (conv (parse, print)) Tpch
      & info [ "db" ] ~docv:"DB" ~doc:"Database: tpch, ds1 or bench.")
  in
  let scale =
    Arg.(
      value & opt positive 0.02
      & info [ "scale" ] ~docv:"S"
          ~doc:"Database scale factor (1.0 = TPC-H SF-1 row counts).")
  in
  let schema_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schema" ] ~docv:"PATH"
          ~doc:
            "Use a custom database described by a CREATE TABLE script \
             (overrides --db).")
  in
  Term.(
    const (fun db scale schema_file -> { db; scale; schema_file })
    $ db $ scale $ schema_file)

(** The storage budget in bytes ([infinity] when absent). *)
let budget =
  Term.(
    const (function None -> infinity | Some mb -> mb *. 1024.0 *. 1024.0)
    $ Arg.(
        value
        & opt (some positive) None
        & info [ "budget-mb" ] ~docv:"MB"
            ~doc:"Storage budget in megabytes (absent = unconstrained)."))

let mode =
  Arg.(
    value
    & opt
        (enum
           [
             ("indexes", Relax_tuner.Tuner.Indexes_only);
             ("views", Relax_tuner.Tuner.Indexes_and_views);
           ])
        Relax_tuner.Tuner.Indexes_and_views
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"What to recommend: indexes only, or indexes and views.")

let iterations ~default ~doc =
  Arg.(value & opt (int_from 0) default & info [ "iterations" ] ~docv:"N" ~doc)

(** [--jobs N], [default ()] when absent. *)
let jobs ~default ~doc =
  Term.(
    const (function Some n -> n | None -> default ())
    $ Arg.(
        value & opt (some (int_from 1)) None & info [ "jobs" ] ~docv:"N" ~doc))

let whatif_budget ~doc =
  Arg.(
    value
    & opt (some (int_from 0)) None
    & info [ "whatif-budget" ] ~docv:"N" ~doc)

let verbose ~doc = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs ~verbose level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else level)
