(** Unit tests for the estimation stack (selectivity, cardinality, update
    costs) and the DDL emitter. *)

open Relax_sql.Types
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr
module Query = Relax_sql.Query
module Index = Relax_physical.Index
module Config = Relax_physical.Config
module Ddl = Relax_physical.Ddl
module O = Relax_optimizer

let c = Column.make
let cat = lazy (Fixtures.small_catalog ())
let env = lazy (O.Env.make (Lazy.force cat) Config.empty)

(* --- selectivity ----------------------------------------------------------- *)

let test_sel_full_range_is_one () =
  let r = Predicate.range (c "r" "a") in
  Fixtures.check_float ~eps:1e-6 "unbounded" 1.0
    (O.Selectivity.range (Lazy.force env) r)

let test_sel_halves () =
  (* r.a is uniform on [0, 1000] *)
  let r = Predicate.range ~hi:(Predicate.bound (VInt 500)) (c "r" "a") in
  let s = O.Selectivity.range (Lazy.force env) r in
  Alcotest.(check bool) "about half" true (s > 0.4 && s < 0.6)

let test_sel_equality_uses_distinct () =
  let s = O.Selectivity.range (Lazy.force env) (Predicate.range_eq (c "r" "a") (VInt 500)) in
  (* ~1/1000 distinct values *)
  Alcotest.(check bool) "around 1/1000" true (s > 1e-4 && s < 1e-2)

let test_sel_join_containment () =
  (* r.sid (1000 distinct) joined to s.id (1000 distinct): 1/1000 *)
  let j = Predicate.make_join (c "r" "sid") (c "s" "id") in
  let s = O.Selectivity.join (Lazy.force env) j in
  Fixtures.check_float ~eps:1e-4 "1/1000" 0.001 s

let test_sel_others_shapes () =
  let env = Lazy.force env in
  let eq = Expr.Cmp (Eq, Col (c "r" "a"), Bin (Add, Col (c "r" "b"), Expr.int_ 1)) in
  let ineq = Expr.Cmp (Lt, Col (c "r" "a"), Col (c "r" "b")) in
  Alcotest.(check bool) "eq more selective than inequality" true
    (O.Selectivity.other env eq < O.Selectivity.other env ineq);
  let in3 = Expr.In_list (Col (c "r" "a"), [ VInt 1; VInt 2; VInt 3 ]) in
  let in1 = Expr.In_list (Col (c "r" "a"), [ VInt 1 ]) in
  Alcotest.(check bool) "IN grows with list" true
    (O.Selectivity.other env in1 < O.Selectivity.other env in3)

let test_sel_clamped () =
  let env = Lazy.force env in
  let wide = Expr.Or (Expr.Cmp (Neq, Col (c "r" "a"), Expr.int_ 1),
                      Expr.Cmp (Neq, Col (c "r" "b"), Expr.int_ 2)) in
  let s = O.Selectivity.other env wide in
  Alcotest.(check bool) "within [0,1]" true (s >= 0.0 && s <= 1.0)

(* --- cardinality ------------------------------------------------------------ *)

let test_card_single_table () =
  let n =
    O.Cardinality.join_rows (Lazy.force env) ~tables:[ "r" ] ~joins:[]
      ~ranges:[] ~others:[]
  in
  Fixtures.check_float "table rows" 100_000.0 n

let test_card_fk_join () =
  (* r ⋈ s on sid=id: |r| × |s| / max(d) = 100000 × 1000/1000 *)
  let n =
    O.Cardinality.join_rows (Lazy.force env) ~tables:[ "r"; "s" ]
      ~joins:[ Predicate.make_join (c "r" "sid") (c "s" "id") ]
      ~ranges:[] ~others:[]
  in
  Alcotest.(check bool) "about |r|" true (n > 50_000.0 && n < 200_000.0)

let test_card_group_capped () =
  let env = Lazy.force env in
  let g = O.Cardinality.group_rows env ~input_rows:50.0 [ c "r" "a" ] in
  Alcotest.(check bool) "groups <= input" true (g <= 50.0);
  let g2 = O.Cardinality.group_rows env ~input_rows:1e9 [ c "r" "d" ] in
  (* d has ~51 distinct values *)
  Alcotest.(check bool) "groups <= distinct" true (g2 <= 60.0)

let test_card_scalar_agg_is_one () =
  let q = (Fixtures.parse_select "SELECT SUM(r.a) FROM r WHERE r.b = 1").body in
  Fixtures.check_float "one row" 1.0 (O.Cardinality.spjg (Lazy.force env) q)

(* --- update costs ------------------------------------------------------------ *)

let dml_of s = Fixtures.parse_dml s

let test_update_affected_rows () =
  let env = Lazy.force env in
  let d = dml_of "DELETE FROM r WHERE a < 100" in
  let k = O.Update_cost.affected_rows env d in
  (* ~10% of 100k rows *)
  Alcotest.(check bool) "about 10k" true (k > 5_000.0 && k < 20_000.0)

let test_update_index_affected_rules () =
  let upd = dml_of "UPDATE r SET b = b + 1 WHERE a < 10" in
  let ins = dml_of "INSERT INTO r ROWS 100" in
  let i_b = Index.on "r" [ "b" ] in
  let i_a = Index.on "r" [ "a" ] in
  let i_s = Index.on "s" [ "x" ] in
  Alcotest.(check bool) "b-index maintained" true
    (O.Update_cost.index_affected upd i_b);
  Alcotest.(check bool) "a-index not maintained by b-update" false
    (O.Update_cost.index_affected upd i_a);
  Alcotest.(check bool) "insert maintains all" true
    (O.Update_cost.index_affected ins i_a);
  Alcotest.(check bool) "other table untouched" false
    (O.Update_cost.index_affected upd i_s)

let test_update_clustered_always_maintained () =
  let upd = dml_of "UPDATE r SET b = b + 1 WHERE a < 10" in
  let ci = Index.on "r" ~clustered:true [ "id" ] in
  Alcotest.(check bool) "clustered rewritten" true
    (O.Update_cost.index_affected upd ci)

let test_update_view_affected () =
  let upd = dml_of "UPDATE r SET b = b + 1 WHERE a < 10" in
  let v_b =
    Relax_physical.View.make (Fixtures.parse_select "SELECT r.b FROM r WHERE r.a < 50").body
  in
  let v_d =
    Relax_physical.View.make (Fixtures.parse_select "SELECT r.d FROM r WHERE r.cc < 50").body
  in
  Alcotest.(check bool) "view reading b maintained" true
    (O.Update_cost.view_affected upd v_b);
  Alcotest.(check bool) "view not reading b spared" false
    (O.Update_cost.view_affected upd v_d)

let test_shell_cost_monotone_in_indexes () =
  let env = Lazy.force env in
  let d = dml_of "INSERT INTO r ROWS 1000" in
  let c0 = O.Update_cost.shell_cost env Config.empty d in
  let c1 =
    O.Update_cost.shell_cost env (Config.of_indexes [ Index.on "r" [ "a" ] ]) d
  in
  let c2 =
    O.Update_cost.shell_cost env
      (Config.of_indexes [ Index.on "r" [ "a" ]; Index.on "r" [ "b" ] ])
      d
  in
  Alcotest.(check bool) "monotone" true (c0 < c1 && c1 < c2)

(* --- the §3.6 relevance rule ------------------------------------------------ *)

(* A generated star workload with updates, and its optimal configuration
   in each tuning mode. *)
let update_workload =
  lazy
    (let module W = Relax_workloads in
     let schema = W.Star.schema ~scale:0.01 () in
     let profile =
       { W.Generator.default_profile with update_fraction = 0.4; max_tables = 2 }
     in
     let w = W.Generator.workload ~seed:17 ~profile schema ~n:12 in
     let optimal views =
       (Relax_tuner.Instrument.optimal_configuration schema.catalog
          ~base:Config.empty ~views w)
         .optimal
     in
     (schema.catalog, List.map snd (Query.dml_entries w), optimal))

(* Walk a relaxation chain from the optimal configuration of [views] mode.
   At each configuration C (the optimal one, then one per pick) apply
   every transformation to get C'; for each
   statement the rule leaves out (nothing removed from C and nothing added
   in C' touches its table), compare its shell cost under C and C'.
   Returns (statements compared, statements whose bits differ). *)
let shell_chain ~views picks =
  let module View = Relax_physical.View in
  let module Tr = Relax_tuner.Transform in
  let cat, dmls, optimal = Lazy.force update_workload in
  let est v =
    O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
  in
  let views_not_in config other =
    List.filter (fun v -> not (Config.mem_view config v)) (Config.views other)
  in
  let check config (compared, differ) config' =
    let env = O.Env.make cat config and env' = O.Env.make cat config' in
    let removed =
      Index.Set.diff (Config.index_set config) (Config.index_set config')
    in
    let added =
      Index.Set.diff (Config.index_set config') (Config.index_set config)
    in
    let views_out = views_not_in config' config in
    let views_in = views_not_in config config' in
    List.fold_left
      (fun (compared, differ) d ->
        let table = Query.dml_table d in
        if
          O.Update_cost.touches config ~table ~indexes:removed ~views:views_out
          || O.Update_cost.touches config' ~table ~indexes:added ~views:views_in
        then (compared, differ)
        else begin
          let before = O.Update_cost.shell_cost env config d in
          let after = O.Update_cost.shell_cost env' config' d in
          let same =
            Int64.equal (Int64.bits_of_float before) (Int64.bits_of_float after)
          in
          (compared + 1, if same then differ else differ + 1)
        end)
      (compared, differ) dmls
  in
  let rec go config acc picks =
    let relaxed =
      Array.map
        (fun tr -> Tr.apply ~estimate_rows:est config tr)
        (Array.of_list (Tr.enumerate config))
    in
    let acc =
      Array.fold_left
        (fun acc -> function Some c' -> check config acc c' | None -> acc)
        acc relaxed
    in
    match picks with
    | pick :: rest when Array.length relaxed > 0 -> (
      match relaxed.(pick mod Array.length relaxed) with
      | Some config' -> go config' acc rest
      | None -> acc)
    | _ -> acc
  in
  go (optimal views) (0, 0) picks

(* the rule is sound: a statement it leaves out keeps its shell cost bit
   for bit, in both tuning modes, all along a relaxation chain *)
let prop_touches_sound =
  QCheck.Test.make
    ~name:"shell cost of a statement the rule leaves out is unchanged"
    ~count:20
    QCheck.(pair bool (list_of_size Gen.(int_range 0 3) (int_bound 10_000)))
    (fun (views, picks) ->
      let compared, differ = shell_chain ~views picks in
      compared > 0 && differ = 0)

(* --- transformation deltas --------------------------------------------------- *)

let tpch_views =
  lazy
    (let module W = Relax_workloads in
     let cat = W.Tpch.catalog ~scale:0.01 () in
     let optimal =
       (Relax_tuner.Instrument.optimal_configuration cat ~base:Config.empty
          ~views:true (W.Tpch.workload ()))
         .optimal
     in
     (cat, optimal))

(* Walk a relaxation chain from [config] (one step per pick) and, at each
   configuration C, apply every enumerated transformation to get C': fold
   [f acc C tr (C', added)] over every transformation that applies. *)
let fold_chain cat config picks f init =
  let module View = Relax_physical.View in
  let module Tr = Relax_tuner.Transform in
  let est v =
    O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
  in
  let rec go config acc picks =
    let relaxed =
      Array.of_list
        (List.filter_map
           (fun tr ->
             Option.map
               (fun delta -> (tr, delta))
               (Tr.apply_delta ~estimate_rows:est config tr))
           (Tr.enumerate config))
    in
    let acc =
      Array.fold_left (fun acc (tr, delta) -> f acc config tr delta) acc relaxed
    in
    match picks with
    | pick :: rest when Array.length relaxed > 0 ->
      let _, (config', _) = relaxed.(pick mod Array.length relaxed) in
      go config' acc rest
    | _ -> acc
  in
  go config init picks

(* Compare the change [Transform.changed_indexes] derives from
   [apply_delta] with the two set differences of C and C'.  Returns
   (transformations compared, deltas that differ, transformations
   removing an index that survives in C' — a merge whose result equals
   one of its parents). *)
let delta_chain cat config picks =
  let module Tr = Relax_tuner.Transform in
  fold_chain cat config picks
    (fun (compared, differ, survivors) config tr ((config', _) as delta) ->
      let removed, added = Tr.changed_indexes config tr delta in
      let same =
        Index.Set.equal removed
          (Index.Set.diff (Config.index_set config) (Config.index_set config'))
        && Index.Set.equal added
             (Index.Set.diff (Config.index_set config')
                (Config.index_set config))
      in
      ( compared + 1,
        (if same then differ else differ + 1),
        if
          Index.Set.cardinal removed
          < List.length (Tr.removed_indexes config tr)
        then survivors + 1
        else survivors ))
    (0, 0, 0)

(* the change ranking reads from [apply_delta] is the two set
   differences, in TPC-H views mode (view merges, and merges of a view's
   clustered and unclustered index on one key, whose result is a parent)
   and on a generated workload in indexes-only mode *)
let prop_delta_is_diff =
  QCheck.Test.make ~name:"transformation delta equals the configuration diffs"
    ~count:4
    QCheck.(list_of_size Gen.(int_range 0 3) (int_bound 10_000))
    (fun picks ->
      let cat, optimal = Lazy.force tpch_views in
      let compared, differ, survivors = delta_chain cat optimal picks in
      let gcat, _, goptimal = Lazy.force update_workload in
      let gcompared, gdiffer, _ = delta_chain gcat (goptimal false) picks in
      compared > 0 && differ = 0 && survivors > 0 && gcompared > 0
      && gdiffer = 0)

(* --- DDL ---------------------------------------------------------------------- *)

let test_ddl_index () =
  let i = Index.on "r" [ "a"; "b" ] ~suffix:[ "cc" ] in
  let s = Fmt.str "%a" Ddl.pp_index i in
  Alcotest.(check bool) "create" true (Astring_contains.contains s "CREATE INDEX");
  Alcotest.(check bool) "keys" true (Astring_contains.contains s "(a, b)");
  Alcotest.(check bool) "include" true (Astring_contains.contains s "INCLUDE (cc)")

let test_ddl_clustered () =
  let i = Index.on "r" ~clustered:true [ "id" ] in
  let s = Fmt.str "%a" Ddl.pp_index i in
  Alcotest.(check bool) "clustered keyword" true
    (Astring_contains.contains s "CREATE CLUSTERED INDEX")

let test_ddl_drop_script () =
  let cfg = Config.of_indexes [ Index.on "r" [ "a" ]; Index.on "s" [ "x" ] ] in
  let s = Fmt.str "%a" Ddl.pp_drop cfg in
  Alcotest.(check int) "two drops" 2 (Astring_contains.count s "DROP INDEX")

(* the index names a script creates ([`Create]) or drops ([`Drop]): the
   word after INDEX on each line that starts with that verb *)
let ddl_index_names verb script =
  let prefix = match verb with `Create -> "CREATE " | `Drop -> "DROP " in
  List.filter_map
    (fun line ->
      if not (String.starts_with ~prefix line) then None
      else
        let rec after_index = function
          | "INDEX" :: name :: _ ->
            Some
              (if String.ends_with ~suffix:";" name then
                 String.sub name 0 (String.length name - 1)
               else name)
          | _ :: rest -> after_index rest
          | [] -> None
        in
        after_index (String.split_on_char ' ' line))
    (String.split_on_char '\n' script)

let test_ddl_delta_drops_created_names () =
  let deployed =
    Config.of_indexes
      [
        Index.on "r" [ "a"; "b" ];
        Index.on "r" [ "b" ] ~suffix:[ "cc" ];
        Index.on "r" ~clustered:true [ "id" ];
        Index.on "s" [ "x" ];
      ]
  in
  let target = Config.of_indexes [ Index.on "s" [ "x" ]; Index.on "r" [ "d" ] ] in
  let created =
    ddl_index_names `Create
      (Ddl.delta_to_string (Ddl.delta ~deployed:Config.empty ~target:deployed))
  in
  let dropped =
    ddl_index_names `Drop (Ddl.delta_to_string (Ddl.delta ~deployed ~target))
  in
  Alcotest.(check int) "three drops" 3 (List.length dropped);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " was created") true (List.mem name created))
    dropped;
  (* the deployment and tear-down scripts agree too *)
  let teardown = ddl_index_names `Drop (Fmt.str "%a" Ddl.pp_drop deployed) in
  Alcotest.(check (list string)) "tear-down drops the deployed names"
    (List.sort compare (ddl_index_names `Create (Ddl.to_string deployed)))
    (List.sort compare teardown)

let test_ddl_drop_names_distinct () =
  (* ix[r](a,b) and ix[r](a;b): keys (a, b), or key a with suffix b *)
  let deployed =
    Config.of_indexes [ Index.on "r" [ "a"; "b" ]; Index.on "r" [ "a" ] ~suffix:[ "b" ] ]
  in
  match
    ddl_index_names `Drop
      (Ddl.delta_to_string (Ddl.delta ~deployed ~target:Config.empty))
  with
  | [ n1; n2 ] -> Alcotest.(check bool) (n1 ^ " <> " ^ n2) true (n1 <> n2)
  | names -> Alcotest.failf "expected two drops, got %d" (List.length names)

(* --- pretty-printer round trips for DDL-adjacent pieces ------------------------ *)

let test_pretty_view_sql_reparses () =
  let v =
    Relax_physical.View.make
      (Fixtures.parse_select
         "SELECT r.a, SUM(s.x) FROM r, s WHERE r.sid = s.id AND r.a < 10 GROUP BY r.a")
        .body
  in
  let sql = Fmt.str "%a" Relax_sql.Pretty.pp_spjg (Relax_physical.View.definition v) in
  match Relax_sql.Parser.statement sql with
  | Select q ->
    Alcotest.(check int) "same tables" 2 (List.length q.body.tables)
  | _ -> Alcotest.fail "view definition did not re-parse"

(* --- CBV bound (§3.3.2, view removal) -------------------------------------- *)

(* Regression: the compensating sort of [removed_view_bound] is costed on
   the access's own cardinality, not on the whole view.  A selective
   ordered access over a removed 50k-row view must pay only a 50-row
   sort. *)
let test_removed_view_bound_sorts_accessed_rows () =
  let module View = Relax_physical.View in
  let module T = Relax_tuner in
  let module P = O.Cost_params in
  let cat = Lazy.force cat in
  let view = View.make (Fixtures.parse_select "SELECT r.a, r.b FROM r").body in
  let rows = 50_000.0 in
  let config = Config.add_view Config.empty view ~rows in
  let old_env = O.Env.make cat config in
  let ctx : T.Cost_bound.context =
    {
      env' = O.Env.make cat Config.empty;
      old_env;
      removed_indexes = [];
      removed_views = [ view ];
      view_merge = None;
      cbv = (fun _ -> 1000.0);
      expands = false;
    }
  in
  let vname = View.name view in
  let access ~order ~access_rows : O.Plan.access_info =
    {
      rel = vname;
      request =
        O.Request.make ~rel:vname ~order
          ~cols:(Column_set.singleton (c vname "r_a"))
          ();
      usages = [];
      via_view = None;
      access_cost = 0.0;
      access_rows;
      sorted = order <> [];
      executions = 1.0;
    }
  in
  let ordered = [ (c vname "r_a", Asc) ] in
  let b_unordered = T.Cost_bound.removed_view_bound ctx (access ~order:[] ~access_rows:50.0) view in
  let b_selective =
    T.Cost_bound.removed_view_bound ctx (access ~order:ordered ~access_rows:50.0) view
  in
  let b_full =
    T.Cost_bound.removed_view_bound ctx (access ~order:ordered ~access_rows:rows) view
  in
  let width = O.Env.row_width old_env vname in
  let page = Relax_physical.Size_model.default_params.page_size in
  let expected_sort =
    P.sort_cost ~rows:50.0 ~pages:(Float.max 1.0 (50.0 *. width /. page))
  in
  Fixtures.check_float ~eps:1e-6 "sort costed on accessed cardinality"
    expected_sort
    (b_selective -. b_unordered);
  Alcotest.(check bool) "50-row sort far below full-view sort" true
    (b_full -. b_selective > 10.0 *. expected_sort)

(* A plan whose one access reads [i] alone: a scan of the whole index. *)
let plan_reading (i : Index.t) =
  let rel = Index.owner i in
  let scan : O.Plan.t =
    {
      node = Index_scan i;
      rows = 1.0;
      cost = 1.0;
      out_order = [];
      out_cols = Index.columns i;
    }
  in
  let info : O.Plan.access_info =
    {
      rel;
      request = O.Request.make ~rel ~cols:(Index.columns i) ();
      usages = [ { index = i; kind = Scan; rows_touched = 1.0 } ];
      via_view = None;
      access_cost = 1.0;
      access_rows = 1.0;
      sorted = false;
      executions = 1.0;
    }
  in
  { scan with node = Access { info; input = scan } }

(* Count, over a relaxation chain, the costing contexts whose removed
   indexes differ as a set from what [changed_indexes] says the
   transformation takes out, the inputs a transformation yields back,
   and the plans reading only such a survivor that the context calls
   affected. *)
let removed_chain cat config picks =
  let module Tr = Relax_tuner.Transform in
  let module CB = Relax_tuner.Cost_bound in
  fold_chain cat config picks
    (fun (differ, survivors, affected) config tr ((config', _) as delta) ->
      let ctx =
        CB.make_context cat ~cbv:(fun _ -> 0.0) ~new_config:config'
          [ (config, tr) ]
      in
      let kept =
        List.filter (Config.mem_index config') (Tr.removed_indexes config tr)
      in
      ( (if
           Index.Set.equal
             (Index.Set.of_list ctx.removed_indexes)
             (fst (Tr.changed_indexes config tr delta))
         then differ
         else differ + 1),
        survivors + List.length kept,
        affected
        + List.length
            (List.filter (fun i -> CB.plan_affected ctx (plan_reading i)) kept)
      ))
    (0, 0, 0)

(* "Removed" has one meaning wherever a plan is costed: the costing
   context of every transformation, in TPC-H views mode and on a
   generated workload in indexes-only mode, removes exactly the indexes
   C' no longer holds.  An input a merge yields back survives, and a plan
   that reads only it stays valid under C', so it is not affected. *)
let prop_context_removes_gone =
  QCheck.Test.make ~name:"costing context removes what C' lacks"
    ~count:4
    QCheck.(list_of_size Gen.(int_range 0 3) (int_bound 10_000))
    (fun picks ->
      let cat, optimal = Lazy.force tpch_views in
      let differ, survivors, affected = removed_chain cat optimal picks in
      let gcat, _, goptimal = Lazy.force update_workload in
      let gdiffer, _, gaffected = removed_chain gcat (goptimal false) picks in
      differ = 0 && gdiffer = 0 && survivors > 0 && affected = 0
      && gaffected = 0)

let suite =
  [
    Alcotest.test_case "sel: unbounded" `Quick test_sel_full_range_is_one;
    Alcotest.test_case "sel: half range" `Quick test_sel_halves;
    Alcotest.test_case "sel: equality" `Quick test_sel_equality_uses_distinct;
    Alcotest.test_case "sel: join containment" `Quick test_sel_join_containment;
    Alcotest.test_case "sel: other shapes" `Quick test_sel_others_shapes;
    Alcotest.test_case "sel: clamped" `Quick test_sel_clamped;
    Alcotest.test_case "card: single table" `Quick test_card_single_table;
    Alcotest.test_case "card: fk join" `Quick test_card_fk_join;
    Alcotest.test_case "card: group caps" `Quick test_card_group_capped;
    Alcotest.test_case "card: scalar agg" `Quick test_card_scalar_agg_is_one;
    Alcotest.test_case "update: affected rows" `Quick test_update_affected_rows;
    Alcotest.test_case "update: index rules" `Quick test_update_index_affected_rules;
    Alcotest.test_case "update: clustered" `Quick test_update_clustered_always_maintained;
    Alcotest.test_case "update: views" `Quick test_update_view_affected;
    Alcotest.test_case "update: shell monotone" `Quick
      test_shell_cost_monotone_in_indexes;
    QCheck_alcotest.to_alcotest prop_touches_sound;
    QCheck_alcotest.to_alcotest prop_delta_is_diff;
    QCheck_alcotest.to_alcotest prop_context_removes_gone;
    Alcotest.test_case "ddl: index" `Quick test_ddl_index;
    Alcotest.test_case "ddl: clustered" `Quick test_ddl_clustered;
    Alcotest.test_case "ddl: drop" `Quick test_ddl_drop_script;
    Alcotest.test_case "ddl: delta drops created names" `Quick
      test_ddl_delta_drops_created_names;
    Alcotest.test_case "ddl: distinct drop names" `Quick
      test_ddl_drop_names_distinct;
    Alcotest.test_case "pretty: view sql re-parses" `Quick
      test_pretty_view_sql_reparses;
    Alcotest.test_case "cbv: sort on accessed rows" `Quick
      test_removed_view_bound_sorts_accessed_rows;
  ]
