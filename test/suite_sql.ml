(** Unit and property tests for the SQL layer: expressions, predicate
    classification, range algebra, parser round-trips. *)

open Relax_sql.Types
module Expr = Relax_sql.Expr
module Predicate = Relax_sql.Predicate
module Query = Relax_sql.Query
module Parser = Relax_sql.Parser
module Pretty = Relax_sql.Pretty

let c = Column.make

let test_classify_paper_example () =
  (* the example of the Assumptions section:
     R.x=S.y AND S.y=T.z (joins); R.a>5 AND R.a<50 AND R.b>5 (ranges);
     (R.a<R.b OR R.c<8) AND R.a*R.b=5 (others) *)
  let stmt =
    Parser.statement
      "SELECT R.a, S.b, T.cc FROM R, S, T WHERE R.x = S.y AND S.y = T.z AND \
       R.a > 5 AND R.a < 50 AND R.b > 5 AND (R.a < R.b OR R.cc < 8) AND R.a \
       * R.b = 5"
  in
  match stmt with
  | Query.Select q ->
    Alcotest.(check int) "joins" 2 (List.length q.body.joins);
    (* R.a>5 and R.a<50 collapse into one range on R.a, plus R.b>5 *)
    Alcotest.(check int) "ranges" 2 (List.length q.body.ranges);
    Alcotest.(check int) "others" 2 (List.length q.body.others);
    let ra =
      List.find
        (fun (r : Predicate.range) -> Column.equal r.rcol (c "R" "a"))
        q.body.ranges
    in
    Alcotest.(check bool) "R.a has both bounds" true
      (ra.lo <> None && ra.hi <> None)
  | _ -> Alcotest.fail "expected select"

let test_range_intersect () =
  let r1 = Predicate.range ~lo:(Predicate.bound (VInt 5)) (c "r" "a") in
  let r2 = Predicate.range ~hi:(Predicate.bound (VInt 10)) (c "r" "a") in
  let i = Predicate.range_intersect r1 r2 in
  Alcotest.(check bool) "bounded both sides" true (i.lo <> None && i.hi <> None)

let test_range_union_unbounded () =
  (* merging R.a < 10 and R.a > 5 must become unbounded (paper §3.1.2) *)
  let r1 = Predicate.range ~hi:(Predicate.bound (VInt 10)) (c "r" "a") in
  let r2 = Predicate.range ~lo:(Predicate.bound (VInt 5)) (c "r" "a") in
  let u = Predicate.range_union r1 r2 in
  Alcotest.(check bool) "unbounded" true (Predicate.is_unbounded u)

let test_range_implies () =
  let tight =
    Predicate.range
      ~lo:(Predicate.bound (VInt 10))
      ~hi:(Predicate.bound (VInt 20))
      (c "r" "a")
  in
  let loose = Predicate.range ~lo:(Predicate.bound (VInt 0)) (c "r" "a") in
  Alcotest.(check bool) "tight implies loose" true
    (Predicate.implies ~by:tight loose);
  Alcotest.(check bool) "loose does not imply tight" false
    (Predicate.implies ~by:loose tight)

let test_equality_range () =
  let r = Predicate.range_eq (c "r" "a") (VInt 7) in
  Alcotest.(check bool) "is_equality" true (Predicate.is_equality r)

let test_equiv_classes () =
  let joins =
    [
      Predicate.make_join (c "r" "x") (c "s" "y");
      Predicate.make_join (c "s" "y") (c "t" "z");
    ]
  in
  let equiv = Query.column_equiv joins in
  Alcotest.(check bool) "transitive" true (equiv (c "r" "x") (c "t" "z"));
  Alcotest.(check bool) "unrelated" false (equiv (c "r" "x") (c "r" "a"))

let test_parse_update () =
  match
    Parser.statement "UPDATE r SET a = b + 1, cc = cc * cc + 5 WHERE a < 10 AND d < 20"
  with
  | Query.Dml (Query.Update u) ->
    Alcotest.(check int) "assignments" 2 (List.length u.assignments);
    Alcotest.(check int) "ranges" 2 (List.length u.ranges)
  | _ -> Alcotest.fail "expected update"

let test_split_update () =
  let d =
    match Parser.statement "UPDATE r SET a = b + 1, cc = cc * cc + 5 WHERE a < 10 AND d < 20" with
    | Query.Dml d -> d
    | _ -> Alcotest.fail "expected dml"
  in
  match Query.split_update d with
  | Some sel, _ ->
    (* select part reads b and cc, under the same WHERE *)
    Alcotest.(check int) "select tables" 1 (List.length sel.body.tables);
    Alcotest.(check int) "select ranges" 2 (List.length sel.body.ranges);
    let cols = Query.spjg_columns sel.body in
    Alcotest.(check bool) "reads b" true (Column_set.mem (c "r" "b") cols);
    let updated = Query.updated_columns d in
    Alcotest.(check bool) "updates a" true (Column_set.mem (c "r" "a") updated);
    Alcotest.(check bool) "does not update b" false
      (Column_set.mem (c "r" "b") updated)
  | None, _ -> Alcotest.fail "expected a select component"

let test_plannable_selects () =
  let w =
    List.map
      (fun (qid, sql) -> Query.entry qid (Parser.statement sql))
      [
        ("q1", "SELECT r.a FROM r WHERE r.a = 1");
        ("u1", "UPDATE r SET a = b + 1 WHERE a < 10");
        ("i1", "INSERT INTO r ROWS 100");
        ("d1", "DELETE FROM r WHERE a < 5");
      ]
  in
  let got = Query.plannable_selects w in
  (* selects under their own qid, DML select components under
     [select_qid], inserts (nothing to read) skipped, in workload order *)
  Alcotest.(check (list string))
    "qids" [ "q1"; Query.select_qid "u1"; Query.select_qid "d1" ]
    (List.map (fun (qid, _, _) -> qid) got);
  match (got, List.nth w 0, List.nth w 1) with
  | (_, _, sel) :: (_, _, upd) :: _, { stmt = Query.Select q; _ }, { stmt = Query.Dml d; _ } ->
    Alcotest.(check bool) "select as is" true (sel = q);
    Alcotest.(check bool) "update component" true
      (Some upd = fst (Query.split_update d))
  | _ -> Alcotest.fail "expected a select and an update"

let test_parse_group_order () =
  match
    Parser.statement
      "SELECT r.a, SUM(r.b) FROM r WHERE r.d = 3 GROUP BY r.a ORDER BY r.a DESC"
  with
  | Query.Select q ->
    Alcotest.(check int) "group" 1 (List.length q.body.group_by);
    Alcotest.(check int) "order" 1 (List.length q.order_by);
    Alcotest.(check bool) "agg" true (Query.has_aggregates q.body)
  | _ -> Alcotest.fail "expected select"

let test_parse_errors () =
  let bad = [ "SELECT"; "SELECT a FROM"; "UPDATE r a = 3"; "FROB x" ] in
  List.iter
    (fun s ->
      match Parser.statement s with
      | exception Parser.Parse_error _ -> ()
      | exception Relax_sql.Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    bad

(* an integer literal past [max_int] is a lex error at its first digit, not
   an escaping [Failure] *)
let test_lex_int_overflow () =
  let src = "SELECT r.a FROM r WHERE r.a < 99999999999999999999999" in
  (match Relax_sql.Lexer.tokenize src with
  | _ -> Alcotest.fail "oversized integer literal lexed"
  | exception Relax_sql.Lexer.Lex_error (msg, pos) ->
    Alcotest.(check string) "message" "integer literal out of range" msg;
    Alcotest.(check int) "position" (String.index src '9') pos);
  match Relax_sql.Lexer.tokenize (string_of_int max_int) with
  | [ INT n; EOF ] -> Alcotest.(check int) "max_int still lexes" max_int n
  | _ -> Alcotest.fail "max_int literal not lexed as one INT"

let test_roundtrip_examples () =
  let stmts =
    [
      "SELECT r.a, r.b FROM r WHERE r.a > 5 AND r.b <= 3";
      "SELECT r.a, SUM(s.x) FROM r, s WHERE r.sid = s.id GROUP BY r.a";
      "SELECT r.a FROM r ORDER BY r.a DESC";
      "DELETE FROM r WHERE a < 5";
      "INSERT INTO r ROWS 100";
      "UPDATE r SET a = 1 WHERE b = 2";
    ]
  in
  List.iter
    (fun s ->
      let st1 = Parser.statement s in
      let printed = Pretty.statement_to_string st1 in
      let st2 =
        try Parser.statement printed
        with e ->
          Alcotest.failf "re-parse of %S failed: %s" printed
            (Printexc.to_string e)
      in
      let printed2 = Pretty.statement_to_string st2 in
      Alcotest.(check string) ("round-trip " ^ s) printed printed2)
    stmts

(* --- property tests ------------------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    oneof [ map (fun i -> VInt i) (int_range (-100) 100);
            map (fun f -> VFloat (Float.round (f *. 100.) /. 100.)) (float_range (-50.) 50.) ])

let gen_bound = QCheck.Gen.(map (fun v -> Predicate.bound v) gen_value)

let gen_range =
  QCheck.Gen.(
    let col = map (fun i -> c "r" (Printf.sprintf "c%d" i)) (int_range 0 2) in
    map3
      (fun col lo hi -> { Predicate.rcol = col; lo; hi })
      col (option gen_bound) (option gen_bound))

let arb_range = QCheck.make gen_range

let prop_union_weaker =
  QCheck.Test.make ~name:"range_union is implied by both inputs" ~count:500
    (QCheck.pair arb_range arb_range) (fun (r1, r2) ->
      let r2 = { r2 with rcol = r1.Predicate.rcol } in
      let u = Predicate.range_union r1 r2 in
      Predicate.implies ~by:r1 u && Predicate.implies ~by:r2 u)

let prop_intersect_stronger =
  QCheck.Test.make ~name:"range_intersect implies both inputs" ~count:500
    (QCheck.pair arb_range arb_range) (fun (r1, r2) ->
      let r2 = { r2 with rcol = r1.Predicate.rcol } in
      let i = Predicate.range_intersect r1 r2 in
      Predicate.implies ~by:i r1 && Predicate.implies ~by:i r2)

let prop_implies_reflexive =
  QCheck.Test.make ~name:"implies is reflexive" ~count:200 arb_range (fun r ->
      Predicate.implies ~by:r r)

(* --- parser fuzzing --------------------------------------------------- *)

(* Mutated TPC-H queries and DML statements: truncated, with bytes
   flipped or inserted.  Whatever the bytes, the parser either returns a
   statement or raises one of its two errors. *)
let fuzz_seeds =
  Array.of_list
    (List.map snd Relax_workloads.Tpch.query_texts
    @ [
        "UPDATE r SET a = b + 1, cc = cc * cc + 5 WHERE a < 10 AND d < 20";
        "INSERT INTO lineitem ROWS 400";
        "DELETE FROM lineitem WHERE l_shipdate < 8080";
        "UPDATE orders SET o_comment = 'x' WHERE o_orderkey IN (1, 2, 3)";
      ])

let mutate text (kind, pos, byte) =
  let n = String.length text in
  let p = pos mod (n + 1) in
  match kind with
  | 0 -> String.sub text 0 p
  | 1 when n > 0 ->
    let p = pos mod n in
    String.mapi
      (fun i ch ->
        if i = p then Char.chr (Char.code ch lxor (1 lsl (byte mod 8))) else ch)
      text
  | _ ->
    String.sub text 0 p ^ String.make 1 (Char.chr byte) ^ String.sub text p (n - p)

let arb_mutant =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map2
        (List.fold_left mutate)
        (oneofa fuzz_seeds)
        (list_size (int_range 1 4)
           (triple (int_bound 2) (int_bound 100_000) (int_bound 255))))

let prop_parser_fuzz =
  QCheck.Test.make ~name:"mutated statements raise only parse or lex errors"
    ~count:2000 arb_mutant (fun text ->
      match Parser.statement text with
      | _ -> true
      | exception (Parser.Parse_error _ | Relax_sql.Lexer.Lex_error _) -> true)

let suite =
  [
    Alcotest.test_case "classify paper example" `Quick test_classify_paper_example;
    Alcotest.test_case "range intersect" `Quick test_range_intersect;
    Alcotest.test_case "range union unbounded" `Quick test_range_union_unbounded;
    Alcotest.test_case "range implies" `Quick test_range_implies;
    Alcotest.test_case "equality range" `Quick test_equality_range;
    Alcotest.test_case "column equivalence" `Quick test_equiv_classes;
    Alcotest.test_case "parse update" `Quick test_parse_update;
    Alcotest.test_case "split update (§3.6 example)" `Quick test_split_update;
    Alcotest.test_case "plannable selects" `Quick test_plannable_selects;
    Alcotest.test_case "parse group/order" `Quick test_parse_group_order;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "lex: integer literal out of range" `Quick
      test_lex_int_overflow;
    Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip_examples;
    QCheck_alcotest.to_alcotest prop_union_weaker;
    QCheck_alcotest.to_alcotest prop_intersect_stronger;
    QCheck_alcotest.to_alcotest prop_implies_reflexive;
    QCheck_alcotest.to_alcotest prop_parser_fuzz;
  ]
