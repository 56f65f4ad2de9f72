module J = Relax_obs.Json

let rules =
  [
    ( "L1",
      "error",
      "Module-level mutable state; any module's code can run on a \
       Relax_parallel.Pool worker domain." );
    ("L2", "error", "Catch-all or exception-discarding handler.");
    ( "L3",
      "error",
      "Raw float comparison or int-truncating division in the costing \
       layers." );
    ( "L4",
      "error",
      "Ambient recorder slot accessed outside the observability layer." );
    ( "L5",
      "error",
      "Nondeterminism source: environment seeding, wall-clock read, or \
       unordered Hashtbl iteration." );
    ( "L6",
      "error",
      "Closure submitted to a worker-pool entry point carries effects \
       beyond atomics, mutex-guarded state, and task-local mutation." );
    ( "L7",
      "error",
      "Code reachable from the costing entry points (Cost_bound, \
       Size_model, Access_path) is not pure and deterministic." );
    ( "L8",
      "error",
      "Lock-discipline violation: a mutex acquired while another lock \
       is held." );
    ("W0", "note", "Inline waiver that no longer suppresses any finding.");
  ]

let level_of_rule rule =
  match List.find_opt (fun (r, _, _) -> r = rule) rules with
  | Some (_, level, _) -> level
  | None -> "warning"

let result_of ~suppressed (f : Finding.t) =
  let base =
    [
      ("ruleId", J.String f.rule);
      ("level", J.String (level_of_rule f.rule));
      ( "message",
        J.String (Printf.sprintf "%s Suggestion: %s." f.message f.suggestion)
      );
      ( "locations",
        J.List
          [
            J.Obj
              [
                ( "physicalLocation",
                  J.Obj
                    [
                      ( "artifactLocation",
                        J.Obj [ ("uri", J.String f.file) ] );
                      ( "region",
                        J.Obj
                          [
                            ("startLine", J.Int (max 1 f.line));
                            ("startColumn", J.Int (f.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]
  in
  let base =
    (* GitHub requires message.text, not a bare string *)
    List.map
      (fun (k, v) ->
        if k = "message" then
          match v with
          | J.String s -> (k, J.Obj [ ("text", J.String s) ])
          | v -> (k, v)
        else (k, v))
      base
  in
  J.Obj
    (if suppressed then
       base @ [ ("suppressions", J.List [ J.Obj [ ("kind", J.String "inSource") ] ]) ]
     else base)

let to_json ~findings ~waived =
  J.Obj
    [
      ( "$schema",
        J.String "https://json.schemastore.org/sarif-2.1.0.json" );
      ("version", J.String "2.1.0");
      ( "runs",
        J.List
          [
            J.Obj
              [
                ( "tool",
                  J.Obj
                    [
                      ( "driver",
                        J.Obj
                          [
                            ("name", J.String "relax-lint");
                            ("version", J.String "1.0.0");
                            ( "rules",
                              J.List
                                (List.map
                                   (fun (id, level, text) ->
                                     J.Obj
                                       [
                                         ("id", J.String id);
                                         ( "shortDescription",
                                           J.Obj [ ("text", J.String text) ]
                                         );
                                         ( "defaultConfiguration",
                                           J.Obj
                                             [ ("level", J.String level) ] );
                                       ])
                                   rules) );
                          ] );
                    ] );
                ( "results",
                  J.List
                    (List.map (result_of ~suppressed:false) findings
                    @ List.map (result_of ~suppressed:true) waived) );
              ];
          ] );
    ]

let write ~path ~findings ~waived =
  let oc = open_out path in
  output_string oc (J.to_string (to_json ~findings ~waived));
  output_char oc '\n';
  close_out oc
