(** Tests for the physical layer: the index algebra of §3.1.1 (checked
    against the paper's worked examples), view merging (§3.1.2), the size
    model, and configurations. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module Query = Relax_sql.Query
module Predicate = Relax_sql.Predicate
module Parser = Relax_sql.Parser

let c = Column.make

let cols t names = List.map (fun n -> c t n) names

let check_index msg ~keys ~suffix (i : Index.t) =
  Alcotest.(check (list string))
    (msg ^ " keys") keys
    (List.map (fun (x : column) -> x.col) i.keys);
  Alcotest.(check (list string))
    (msg ^ " suffix")
    (List.sort String.compare suffix)
    (List.map (fun (x : column) -> x.col) (Column_set.elements i.suffix)
    |> List.sort String.compare)

(* Paper example: merging I1=([a,b,c];{d,e,f}) and I2=([c,d,g];{e})
   results in I12=([a,b,c];{d,e,f,g}). *)
let test_merge_paper_example () =
  let i1 = Index.on "r" [ "a"; "b"; "cc" ] ~suffix:[ "d"; "e"; "f" ] in
  let i2 = Index.on "r" [ "cc"; "d"; "g" ] ~suffix:[ "e" ] in
  let m = Index.merge i1 i2 in
  check_index "merge" ~keys:[ "a"; "b"; "cc" ] ~suffix:[ "d"; "e"; "f"; "g" ] m

let test_merge_prefix_rule () =
  (* if K1 is a prefix of K2, merge keeps K2 as the key *)
  let i1 = Index.on "r" [ "a" ] ~suffix:[ "e" ] in
  let i2 = Index.on "r" [ "a"; "b" ] ~suffix:[ "f" ] in
  let m = Index.merge i1 i2 in
  check_index "prefix merge" ~keys:[ "a"; "b" ] ~suffix:[ "e"; "f" ] m

(* Paper example: splitting I1=([a,b,c];{d,e,f}) and I2=([c,a];{e})
   gives IC=([a,c];{e}), IR1=([b];{d,f}). *)
let test_split_paper_example_1 () =
  let i1 = Index.on "r" [ "a"; "b"; "cc" ] ~suffix:[ "d"; "e"; "f" ] in
  let i2 = Index.on "r" [ "cc"; "a" ] ~suffix:[ "e" ] in
  match Index.split i1 i2 with
  | Some (ic, Some ir1, ir2) ->
    check_index "IC" ~keys:[ "a"; "cc" ] ~suffix:[ "e" ] ic;
    check_index "IR1" ~keys:[ "b" ] ~suffix:[ "d"; "f" ] ir1;
    (* K2 and KC hold the same columns: no residual index is needed *)
    Alcotest.(check bool) "no IR2" true (ir2 = None)
  | _ -> Alcotest.fail "split failed"

(* Paper example: splitting I1=([a,b,c];{d,e,f}) and I3=([a,b];{d,g})
   gives IC=([a,b];{d}) and IR1=([c];{e,f}). *)
let test_split_paper_example_2 () =
  let i1 = Index.on "r" [ "a"; "b"; "cc" ] ~suffix:[ "d"; "e"; "f" ] in
  let i3 = Index.on "r" [ "a"; "b" ] ~suffix:[ "d"; "g" ] in
  match Index.split i1 i3 with
  | Some (ic, Some ir1, None) ->
    check_index "IC" ~keys:[ "a"; "b" ] ~suffix:[ "d" ] ic;
    check_index "IR1" ~keys:[ "cc" ] ~suffix:[ "e"; "f" ] ir1
  | _ -> Alcotest.fail "split shape unexpected"

let test_split_disjoint_keys_undefined () =
  let i1 = Index.on "r" [ "a" ] in
  let i2 = Index.on "r" [ "b" ] in
  Alcotest.(check bool) "undefined" true (Index.split i1 i2 = None)

let test_prefixes () =
  let i = Index.on "r" [ "a"; "b" ] ~suffix:[ "cc" ] in
  let ps = Index.prefixes i in
  (* [a], [a,b] (dropping the suffix) *)
  Alcotest.(check int) "count" 2 (List.length ps);
  List.iter
    (fun (p : Index.t) ->
      Alcotest.(check bool) "no suffix" true (Column_set.is_empty p.suffix))
    ps

let test_prefixes_no_suffix () =
  let i = Index.on "r" [ "a"; "b" ] in
  (* only the proper prefix [a]; [a,b] would be the index itself *)
  Alcotest.(check int) "count" 1 (List.length (Index.prefixes i))

let test_merge_idempotent_coverage () =
  let i1 = Index.on "r" [ "a"; "b" ] ~suffix:[ "cc" ] in
  let i2 = Index.on "r" [ "b"; "d" ] in
  let m = Index.merge i1 i2 in
  Alcotest.(check bool) "covers i1" true (Index.covers_columns m ~of_:i1);
  Alcotest.(check bool) "covers i2" true (Index.covers_columns m ~of_:i2)

(* --- view merging --------------------------------------------------- *)

let spjg_of s =
  match Parser.statement s with
  | Query.Select q -> q.body
  | _ -> Alcotest.fail "expected select"

(* The paper's §3.1.2 merging example: V1 selects under R.a<10, V2 under
   10<=R.a<20 with grouping; the merge keeps the union range and the
   grouping discipline. *)
let test_view_merge_ranges () =
  let v1 =
    View.make (spjg_of "SELECT r.a, r.b FROM r WHERE r.a >= 2 AND r.a < 10")
  in
  let v2 =
    View.make (spjg_of "SELECT r.a, r.b FROM r WHERE r.a >= 5 AND r.a < 20")
  in
  match View.merge v1 v2 with
  | Some { merged; _ } ->
    let d = View.definition merged in
    (* [2,10) union [5,20) = [2,20) *)
    Alcotest.(check int) "one surviving range" 1 (List.length d.ranges);
    let r = List.hd d.ranges in
    Alcotest.(check bool) "lo 2" true (r.lo <> None);
    Alcotest.(check bool) "hi 20" true (r.hi <> None)
  | None -> Alcotest.fail "merge failed"

(* A view's name digests its definition's constants exactly: float bounds
   equal to six significant digits still name two views, while a float
   that prints back as itself keeps the name it had when floats were
   printed with [%g] (TPC-H Q6's 0.05 and 0.07). *)
let test_view_names_float_constants () =
  let name sql = View.name (View.make (spjg_of sql)) in
  let differ what a b =
    Alcotest.(check bool) what false (String.equal (name a) (name b))
  in
  differ "close range bounds"
    "SELECT lineitem.l_orderkey FROM lineitem WHERE lineitem.l_discount >= 0.05000001"
    "SELECT lineitem.l_orderkey FROM lineitem WHERE lineitem.l_discount >= 0.05000002";
  differ "close constants in a residual predicate"
    "SELECT r.a FROM r WHERE r.a + r.b > 0.05000001"
    "SELECT r.a FROM r WHERE r.a + r.b > 0.05000002";
  let q6 =
    match
      Query.plannable_selects (Relax_workloads.Tpch.workload_subset [ 6 ])
    with
    | [ (_, _, sq) ] -> sq.Query.body
    | _ -> Alcotest.fail "expected one TPC-H Q6 select"
  in
  Alcotest.(check string) "TPC-H Q6 view keeps its name" "v_aa9d3e327d"
    (View.name (View.make q6))

let test_view_merge_unbounded_range_dropped () =
  let v1 = View.make (spjg_of "SELECT r.a FROM r WHERE r.a < 10") in
  let v2 = View.make (spjg_of "SELECT r.a FROM r WHERE r.a > 5") in
  match View.merge v1 v2 with
  | Some { merged; _ } ->
    Alcotest.(check int) "range dropped" 0
      (List.length (View.definition merged).ranges)
  | None -> Alcotest.fail "merge failed"

let test_view_merge_different_from_fails () =
  let v1 = View.make (spjg_of "SELECT r.a FROM r") in
  let v2 = View.make (spjg_of "SELECT s.x FROM s") in
  Alcotest.(check bool) "no merge" true (View.merge v1 v2 = None)

let test_view_merge_group_by () =
  let v1 =
    View.make (spjg_of "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a")
  in
  let v2 =
    View.make (spjg_of "SELECT r.d, SUM(r.b) FROM r GROUP BY r.d")
  in
  match View.merge v1 v2 with
  | Some { merged; _ } ->
    let d = View.definition merged in
    Alcotest.(check int) "grouping union" 2 (List.length d.group_by);
    Alcotest.(check bool) "keeps aggregate" true (Query.has_aggregates d)
  | None -> Alcotest.fail "merge failed"

let test_view_merge_group_with_spj () =
  (* one side grouped, other not: grouping is dropped, aggregates debased *)
  let v1 = View.make (spjg_of "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a") in
  let v2 = View.make (spjg_of "SELECT r.a, r.d FROM r") in
  match View.merge v1 v2 with
  | Some { merged; _ } ->
    let d = View.definition merged in
    Alcotest.(check int) "no grouping" 0 (List.length d.group_by);
    Alcotest.(check bool) "no aggregates" false (Query.has_aggregates d);
    (* r.b must survive as a base column so SUM can be recomputed *)
    Alcotest.(check bool) "exposes b" true
      (View.view_column_of_base merged (c "r" "b") <> None)
  | None -> Alcotest.fail "merge failed"

let test_view_index_promotion_mapping () =
  let v1 = View.make (spjg_of "SELECT r.a, r.b FROM r WHERE r.a < 10") in
  let v2 = View.make (spjg_of "SELECT r.a, r.b FROM r WHERE r.a >= 2") in
  match View.merge v1 v2 with
  | Some { merged; remap1; _ } ->
    let va = Option.get (View.view_column_of_base v1 (c "r" "a")) in
    let mapped = remap1 va in
    Alcotest.(check bool) "column maps" true (mapped <> None);
    Alcotest.(check string) "to merged view" (View.name merged)
      (Option.get mapped).tbl
  | None -> Alcotest.fail "merge failed"

(* --- size model ------------------------------------------------------ *)

let test_size_hand_computed () =
  (* 8 bytes/leaf entry, usable page = (8192-96)*0.75 = 6072 bytes ->
     PL=round(6072/12)=506 with the 4-byte key + 8-byte rid *)
  let i = Index.on "t" [ "id" ] in
  let bytes =
    Size_model.index_bytes ~rows:506.0 ~width_of:(fun _ -> 4.0) ~row_width:16.0 i
  in
  (* exactly one leaf page + one root page over it? 506 rows exactly fill one
     leaf page, so a single page suffices and no internal level is needed *)
  Fixtures.check_float "one page" 8192.0 bytes

let test_size_monotone_in_rows () =
  let i = Index.on "t" [ "id" ] ~suffix:[ "z" ] in
  let size rows =
    Size_model.index_bytes ~rows ~width_of:(fun _ -> 4.0) ~row_width:16.0 i
  in
  Alcotest.(check bool) "monotone" true
    (size 1_000.0 <= size 10_000.0 && size 10_000.0 <= size 1_000_000.0)

let test_size_clustered_uses_row_width () =
  let sec = Index.on "t" [ "id" ] in
  let clu = Index.on "t" ~clustered:true [ "id" ] in
  let size i =
    Size_model.index_bytes ~rows:100_000.0 ~width_of:(fun _ -> 4.0)
      ~row_width:200.0 i
  in
  Alcotest.(check bool) "clustered larger" true (size clu > size sec)

let test_height_grows () =
  let i = Index.on "t" [ "id" ] in
  let h rows =
    snd (Size_model.geometry ~rows ~width_of:(fun _ -> 4.0) ~row_width:16.0 i)
  in
  Alcotest.(check bool) "height grows" true (h 100.0 <= h 10_000_000.0)

(* --- configurations -------------------------------------------------- *)

let test_config_basic () =
  let i1 = Index.on "r" [ "a" ] and i2 = Index.on "s" [ "x" ] in
  let cfg = Config.of_indexes [ i1; i2 ] in
  Alcotest.(check int) "cardinal" 2 (Config.cardinal cfg);
  Alcotest.(check int) "on r" 1 (List.length (Config.indexes_on cfg "r"));
  let cfg = Config.remove_index cfg i1 in
  Alcotest.(check int) "after removal" 1 (Config.cardinal cfg)

let test_config_view_removal_drops_indexes () =
  let v = View.make (spjg_of "SELECT r.a, r.b FROM r WHERE r.a < 10") in
  let va = Option.get (View.view_column_of_base v (c "r" "a")) in
  let iv = Index.make ~keys:[ va ] ~suffix:Column_set.empty () in
  let cfg = Config.add_view Config.empty v ~rows:1000.0 in
  let cfg = Config.add_index cfg iv in
  Alcotest.(check int) "two structures" 2 (Config.cardinal cfg);
  let cfg = Config.remove_view cfg v in
  Alcotest.(check int) "all gone" 0 (Config.cardinal cfg)

let test_config_size () =
  let cat = Fixtures.small_catalog () in
  let cfg = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b" ] ] in
  let bytes = Config.bytes cat cfg in
  (* 100k rows * (4+4+8 bytes) ~ 1.6MB plus tree overhead *)
  Alcotest.(check bool) "sane size" true (bytes > 1e6 && bytes < 1e7)

(* --- property tests -------------------------------------------------- *)

let arb_index =
  let gen =
    QCheck.Gen.(
      let col_pool = [ "a"; "b"; "cc"; "d"; "e"; "f"; "g" ] in
      let* nk = int_range 1 4 in
      let* perm = shuffle_l col_pool in
      let keys = List.filteri (fun i _ -> i < nk) perm in
      let* ns = int_range 0 3 in
      let rest = List.filteri (fun i _ -> i >= nk) perm in
      let suffix = List.filteri (fun i _ -> i < ns) rest in
      return (Index.on "r" keys ~suffix))
  in
  QCheck.make ~print:Index.name gen

let prop_merge_covers_both =
  QCheck.Test.make ~name:"merged index covers both parents" ~count:500
    (QCheck.pair arb_index arb_index) (fun (i1, i2) ->
      let m = Index.merge i1 i2 in
      Index.covers_columns m ~of_:i1 && Index.covers_columns m ~of_:i2)

let prop_merge_seekable_as_first =
  QCheck.Test.make ~name:"merge keeps a key prefix usable for I1" ~count:500
    (QCheck.pair arb_index arb_index) (fun (i1, i2) ->
      let m = Index.merge i1 i2 in
      (* the merged key sequence starts with K1, or K1 is a prefix of K2 =
         the merged keys *)
      Index.is_prefix ~prefix:i1.keys m.keys
      || Index.is_prefix ~prefix:i1.keys i2.keys)

let prop_split_no_new_columns =
  QCheck.Test.make ~name:"split introduces no new columns" ~count:500
    (QCheck.pair arb_index arb_index) (fun (i1, i2) ->
      match Index.split i1 i2 with
      | None -> true
      | Some (ic, ir1, ir2) ->
        let union =
          Column_set.union (Index.columns i1) (Index.columns i2)
        in
        let all =
          List.fold_left
            (fun acc -> function
              | Some i -> Column_set.union acc (Index.columns i)
              | None -> acc)
            (Index.columns ic)
            [ ir1; ir2 ]
        in
        Column_set.subset all union)

let prop_split_common_is_common =
  QCheck.Test.make ~name:"split common index ⊆ both parents" ~count:500
    (QCheck.pair arb_index arb_index) (fun (i1, i2) ->
      match Index.split i1 i2 with
      | None -> true
      | Some (ic, _, _) ->
        Column_set.subset (Index.columns ic) (Index.columns i1)
        && Column_set.subset (Index.columns ic) (Index.columns i2))

let prop_size_positive =
  QCheck.Test.make ~name:"index size positive" ~count:200 arb_index (fun i ->
      Size_model.index_bytes ~rows:1000.0 ~width_of:(fun _ -> 6.0)
        ~row_width:64.0 i
      > 0.0)

(* Per-relation lookups against the whole-set filter and fold they
   replace, on random configurations over TPC-H tables (part and partsupp:
   one name prefixes the other) and two views, the first sometimes holding
   a clustered and an unclustered index on one key. *)
let prop_indexes_on_run =
  let cat = Relax_workloads.Tpch.catalog ~scale:0.01 () in
  let view sql = View.make (spjg_of sql) in
  let v1 =
    view "SELECT part.p_partkey, part.p_size FROM part WHERE part.p_size < 10"
  and v2 =
    view
      "SELECT partsupp.ps_partkey, SUM(partsupp.ps_supplycost) FROM partsupp \
       GROUP BY partsupp.ps_partkey"
  in
  let view_columns v = List.map (fun (_, it) -> View.column_of_item v it) (View.outputs v) in
  let relations =
    List.map
      (fun t -> (t, Relax_catalog.Catalog.columns_of cat t))
      [ "part"; "partsupp"; "lineitem"; "orders"; "supplier" ]
    @ [ (View.name v1, view_columns v1); (View.name v2, view_columns v2) ]
  in
  let gen_index =
    QCheck.Gen.(
      let* _, columns = oneofl relations in
      let* perm = shuffle_l columns in
      let* nk = int_range 1 (min 3 (List.length perm)) in
      let* ns = int_range 0 2 in
      let* clustered = bool in
      let keys = List.filteri (fun i _ -> i < nk) perm in
      let suffix = List.filteri (fun i _ -> i >= nk && i < nk + ns) perm in
      return
        (Index.make ~clustered ~keys ~suffix:(Column_set.of_list suffix) ()))
  in
  let gen_config =
    QCheck.Gen.(
      let* indexes = list_size (int_range 0 30) gen_index in
      let* same_key = bool in
      let k = List.hd (view_columns v1) in
      let pair =
        if same_key then
          [ Index.make ~clustered:true ~keys:[ k ] ~suffix:Column_set.empty ();
            Index.make ~keys:[ k ] ~suffix:Column_set.empty () ]
        else []
      in
      let config = Config.of_indexes (pair @ indexes) in
      return
        (Config.add_view (Config.add_view config v1 ~rows:100.0) v2 ~rows:50.0))
  in
  let owned name i = String.equal (Index.owner i) name in
  QCheck.Test.make ~name:"indexes_on and clustered_on equal a whole-set scan"
    ~count:300
    (QCheck.make ~print:(Fmt.str "%a" Config.pp) gen_config)
    (fun config ->
      let all = Config.indexes config in
      List.for_all
        (fun name ->
          List.equal Index.equal
            (List.filter (owned name) all)
            (Config.indexes_on config name)
          && Option.equal Index.equal
               (List.fold_left
                  (fun acc (i : Index.t) ->
                    if owned name i && i.clustered then Some i else acc)
                  None all)
               (Config.clustered_on config name))
        ("" :: "par" :: "parts" :: "zzz" :: List.map fst relations))

let suite =
  [
    Alcotest.test_case "merge: paper example" `Quick test_merge_paper_example;
    Alcotest.test_case "merge: prefix rule" `Quick test_merge_prefix_rule;
    Alcotest.test_case "split: paper example 1" `Quick test_split_paper_example_1;
    Alcotest.test_case "split: paper example 2" `Quick test_split_paper_example_2;
    Alcotest.test_case "split: disjoint keys" `Quick test_split_disjoint_keys_undefined;
    Alcotest.test_case "prefixes" `Quick test_prefixes;
    Alcotest.test_case "prefixes without suffix" `Quick test_prefixes_no_suffix;
    Alcotest.test_case "merge coverage" `Quick test_merge_idempotent_coverage;
    Alcotest.test_case "view merge: ranges" `Quick test_view_merge_ranges;
    Alcotest.test_case "view names: exact float constants" `Quick
      test_view_names_float_constants;
    Alcotest.test_case "view merge: unbounded dropped" `Quick
      test_view_merge_unbounded_range_dropped;
    Alcotest.test_case "view merge: FROM mismatch" `Quick
      test_view_merge_different_from_fails;
    Alcotest.test_case "view merge: group-by union" `Quick test_view_merge_group_by;
    Alcotest.test_case "view merge: grouped with SPJ" `Quick
      test_view_merge_group_with_spj;
    Alcotest.test_case "view merge: index promotion mapping" `Quick
      test_view_index_promotion_mapping;
    Alcotest.test_case "size model: hand computed" `Quick test_size_hand_computed;
    Alcotest.test_case "size model: monotone" `Quick test_size_monotone_in_rows;
    Alcotest.test_case "size model: clustered" `Quick
      test_size_clustered_uses_row_width;
    Alcotest.test_case "size model: height" `Quick test_height_grows;
    Alcotest.test_case "config basics" `Quick test_config_basic;
    Alcotest.test_case "config view removal" `Quick
      test_config_view_removal_drops_indexes;
    Alcotest.test_case "config size" `Quick test_config_size;
    QCheck_alcotest.to_alcotest prop_merge_covers_both;
    QCheck_alcotest.to_alcotest prop_merge_seekable_as_first;
    QCheck_alcotest.to_alcotest prop_split_no_new_columns;
    QCheck_alcotest.to_alcotest prop_split_common_is_common;
    QCheck_alcotest.to_alcotest prop_size_positive;
    QCheck_alcotest.to_alcotest prop_indexes_on_run;
  ]
