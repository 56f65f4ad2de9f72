(** Tests for the relax-lint static-analysis pass (lib/lint): each
    fixture module under [test/lint_fixtures/] seeds exactly one rule,
    the clean fixture seeds none, the waived fixture's finding is
    suppressed by its inline comment, the SARIF report carries every
    finding — and the shipped [lib/] tree itself lints clean under the
    repository configuration. *)

module Lint = Relax_lint

(* Anchor every path to the test binary's own directory
   ([_build/default/test]) so the suite works both under [dune runtest]
   (cwd = that directory) and [dune exec] (cwd = the invocation dir).
   Fixture cmts sit right below it, the repository's below [../lib], and
   cmt-recorded source paths ("test/lint_fixtures/fix_l1.ml",
   "lib/core/search.ml") resolve against the build root [..]. *)
let test_dir =
  let exe = Sys.executable_name in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  Filename.dirname exe

let build_root = Filename.concat test_dir ".."

let fixture_config : Lint.Engine.config =
  {
    root = Filename.concat test_dir "lint_fixtures";
    src_root = build_root;
    obs_dirs = [ "lib/obs" ];
    costing_dirs = [ "lint_fixtures" ];
    intdiv_dirs = [ "lint_fixtures" ];
    core_dirs = [ "lint_fixtures" ];
    lock_dirs = [ "lint_fixtures" ];
    costing_entry_modules = [ "Fix_l7" ];
  }

let fixture_result = lazy (Lint.Engine.run fixture_config)

let basename (f : Lint.Finding.t) = Filename.basename f.file
let key (f : Lint.Finding.t) = Printf.sprintf "%s:%d:%s" (basename f) f.line f.rule

let in_file name (fs : Lint.Finding.t list) =
  List.filter (fun f -> basename f = name) fs

let check_findings fixture expected =
  let r = Lazy.force fixture_result in
  Alcotest.(check (list string))
    fixture expected
    (List.map key (in_file fixture r.findings))

let test_l1 () = check_findings "fix_l1.ml" [ "fix_l1.ml:5:L1" ]
let test_l2 () = check_findings "fix_l2.ml" [ "fix_l2.ml:3:L2" ]
let test_l3 () = check_findings "fix_l3.ml" [ "fix_l3.ml:4:L3"; "fix_l3.ml:5:L3" ]
let test_l4 () = check_findings "fix_l4.ml" [ "fix_l4.ml:3:L4" ]

let test_l5 () =
  check_findings "fix_l5.ml"
    [ "fix_l5.ml:3:L5"; "fix_l5.ml:4:L5"; "fix_l5.ml:5:L5" ]

let test_clean () = check_findings "fix_clean.ml" []

(* L6: the first pool closure mutates a captured local, the second
   reaches a wall-clock read two call hops away in another module *)
let test_l6 () =
  check_findings "fix_l6.ml" [ "fix_l6.ml:8:L6"; "fix_l6.ml:15:L6" ]

(* the acceptance demo for the interprocedural analysis: the finding's
   provenance chain crosses a module boundary and two call hops *)
let test_l6_chain () =
  let r = Lazy.force fixture_result in
  let f =
    List.find
      (fun (f : Lint.Finding.t) -> f.rule = "L6" && f.line = 15)
      (in_file "fix_l6.ml" r.findings)
  in
  Alcotest.(check bool)
    "chain crosses into Fix_hop" true
    (Astring_contains.contains f.message
       "Fix_hop.tick -> Fix_hop.raw_now -> Unix.gettimeofday")

(* L7 grounds at the witness site, which lives in the hop module, not
   in the entry module named by the configuration *)
let test_l7 () =
  let r = Lazy.force fixture_result in
  match List.filter (fun (f : Lint.Finding.t) -> f.rule = "L7") r.findings with
  | [ f ] ->
    Alcotest.(check string) "file" "fix_hop.ml" (basename f);
    Alcotest.(check int) "line" 4 f.line;
    Alcotest.(check bool)
      "names the entry" true
      (Astring_contains.contains f.message "Fix_l7.cost");
    Alcotest.(check bool)
      "names the effect" true
      (Astring_contains.contains f.message "reads-clock")
  | fs -> Alcotest.failf "expected exactly one L7 finding, got %d" (List.length fs)

(* the hop module itself carries the direct L5 and hosts the grounded
   L7 witness *)
let test_hop () =
  check_findings "fix_hop.ml" [ "fix_hop.ml:4:L5"; "fix_hop.ml:4:L7" ]

let test_l8 () =
  check_findings "fix_l8.ml" [ "fix_l8.ml:16:L8" ]

let test_w0 () = check_findings "fix_stale.ml" [ "fix_stale.ml:3:W0" ]

(* mutex use, guarded mutation, and a dissolving capture are all within
   the rules — the effects fixture must lint clean *)
let test_effects_fixture () = check_findings "fix_effects.ml" []

let test_waived () =
  let r = Lazy.force fixture_result in
  check_findings "fix_waived.ml" [];
  Alcotest.(check (list string))
    "waived" [ "fix_waived.ml:4:L5" ]
    (List.map key (in_file "fix_waived.ml" r.waived))

(* the acceptance gate: the shipped library tree has no unwaived
   findings under the repository scopes *)
let test_repo_clean () =
  let config =
    {
      (Lint.Engine.default ~root:(Filename.concat build_root "lib")) with
      src_root = build_root;
    }
  in
  let r = Lint.Engine.run config in
  Alcotest.(check (list string))
    "lib/ findings" []
    (List.map (fun (f : Lint.Finding.t) -> key f) r.findings);
  Alcotest.(check bool) "modules loaded" true (r.modules_checked > 50)

(* SARIF is the one machine-readable report: one result per finding,
   then one per waived finding marked as suppressed in source, with
   1-based columns and every rule id declared by the driver *)
let test_sarif () =
  let module J = Relax_obs.Json in
  let r = Lazy.force fixture_result in
  let doc =
    match
      J.of_string
        (J.to_string
           (Lint.Sarif.to_json ~findings:r.findings ~waived:r.waived))
    with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "SARIF does not reparse: %s" msg
  in
  let get k v =
    match J.member k v with
    | Some x -> x
    | None -> Alcotest.failf "SARIF: missing field %s" k
  in
  let list = function J.List l -> l | _ -> Alcotest.fail "expected a list" in
  let str = function J.String s -> s | _ -> Alcotest.fail "expected a string" in
  let int = function J.Int i -> i | _ -> Alcotest.fail "expected an int" in
  let run =
    match list (get "runs" doc) with
    | [ run ] -> run
    | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)
  in
  let rule_ids =
    List.map (fun d -> str (get "id" d))
      (list (get "rules" (get "driver" (get "tool" run))))
  in
  let results = list (get "results" run) in
  let expected =
    List.map (fun f -> (f, false)) r.findings
    @ List.map (fun f -> (f, true)) r.waived
  in
  Alcotest.(check int)
    "one result per finding and waived finding" (List.length expected)
    (List.length results);
  Alcotest.(check bool) "some waived" true (r.waived <> []);
  List.iter2
    (fun res ((f : Lint.Finding.t), waived) ->
      let rule = str (get "ruleId" res) in
      Alcotest.(check string) "ruleId" f.rule rule;
      Alcotest.(check bool)
        (rule ^ " declared by the driver") true (List.mem rule rule_ids);
      let region =
        match list (get "locations" res) with
        | [ loc ] -> get "region" (get "physicalLocation" loc)
        | _ -> Alcotest.fail "expected one location"
      in
      Alcotest.(check int) "startColumn" (f.col + 1)
        (int (get "startColumn" region));
      let suppressions =
        match J.member "suppressions" res with
        | Some s -> List.map (fun s -> str (get "kind" s)) (list s)
        | None -> []
      in
      Alcotest.(check (list string))
        (key f ^ " suppressions")
        (if waived then [ "inSource" ] else [])
        suppressions)
    results expected

let suite =
  [
    Alcotest.test_case "fixture: L1 mutable state" `Quick test_l1;
    Alcotest.test_case "fixture: L2 exception hygiene" `Quick test_l2;
    Alcotest.test_case "fixture: L3 costing hygiene" `Quick test_l3;
    Alcotest.test_case "fixture: L4 ambient access" `Quick test_l4;
    Alcotest.test_case "fixture: L5 nondeterminism" `Quick test_l5;
    Alcotest.test_case "fixture: clean module" `Quick test_clean;
    Alcotest.test_case "fixture: L6 parallel purity" `Quick test_l6;
    Alcotest.test_case "fixture: L6 cross-module chain" `Quick test_l6_chain;
    Alcotest.test_case "fixture: L7 costing purity" `Quick test_l7;
    Alcotest.test_case "fixture: hop module findings" `Quick test_hop;
    Alcotest.test_case "fixture: L8 lock discipline" `Quick test_l8;
    Alcotest.test_case "fixture: W0 stale waiver" `Quick test_w0;
    Alcotest.test_case "fixture: effects module clean" `Quick test_effects_fixture;
    Alcotest.test_case "fixture: inline waiver" `Quick test_waived;
    Alcotest.test_case "repository lib/ lints clean" `Quick test_repo_clean;
    Alcotest.test_case "SARIF report" `Quick test_sarif;
  ]
