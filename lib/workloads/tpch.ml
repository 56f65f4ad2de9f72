(** A TPC-H-like database and 22-query workload.

    The schema mirrors TPC-H's eight tables with realistic column types,
    cardinality ratios and value distributions, at a configurable scale
    (rows = [scale] × the TPC-H SF-1 counts; the default 0.05 keeps tuning
    runs fast while preserving all cardinality ratios).

    The 22 queries are SPJG analogues of the TPC-H query set: the same
    tables, join shapes, predicate styles, groupings and orderings,
    restricted to the single-block dialect of the paper (no nested
    subqueries — where TPC-H uses one, the template keeps the outer block's
    shape).  What matters for physical design is which columns are sargable,
    joined, grouped and projected — those follow the originals closely. *)

module Catalog = Relax_catalog.Catalog
module D = Relax_catalog.Distribution
open Relax_sql.Types

let scale_rows scale n = max 10 (int_of_float (float_of_int n *. scale))

(** The TPC-H-like catalog at the given scale factor. *)
let catalog ?(scale = 0.05) ?(seed = 42) () : Catalog.t =
  let r = scale_rows scale in
  Catalog.create ~seed
    [
      Catalog.table "region" ~rows:5
        [
          Catalog.column "r_regionkey" Int ~dist:D.Serial;
          Catalog.column "r_name" (Char 25) ~dist:(D.Zipf { n = 5; skew = 0.1 });
        ];
      Catalog.table "nation" ~rows:25
        [
          Catalog.column "n_nationkey" Int ~dist:D.Serial;
          Catalog.column "n_name" (Char 25) ~dist:(D.Zipf { n = 25; skew = 0.1 });
          Catalog.column "n_regionkey" Int ~dist:(D.Uniform (0.0, 4.0));
        ];
      Catalog.table "supplier" ~rows:(r 10_000)
        [
          Catalog.column "s_suppkey" Int ~dist:D.Serial;
          Catalog.column "s_name" (Char 25);
          Catalog.column "s_nationkey" Int ~dist:(D.Uniform (0.0, 24.0));
          Catalog.column "s_acctbal" Float
            ~dist:(D.Normal { mean = 4500.0; stddev = 3000.0 });
          Catalog.column "s_comment" (Varchar 101);
        ];
      Catalog.table "customer" ~rows:(r 150_000)
        [
          Catalog.column "c_custkey" Int ~dist:D.Serial;
          Catalog.column "c_name" (Varchar 25);
          Catalog.column "c_nationkey" Int ~dist:(D.Uniform (0.0, 24.0));
          Catalog.column "c_acctbal" Float
            ~dist:(D.Normal { mean = 4500.0; stddev = 3000.0 });
          Catalog.column "c_mktsegment" (Char 10)
            ~dist:(D.Zipf { n = 5; skew = 0.2 });
          Catalog.column "c_comment" (Varchar 117);
        ];
      Catalog.table "part" ~rows:(r 200_000)
        [
          Catalog.column "p_partkey" Int ~dist:D.Serial;
          Catalog.column "p_name" (Varchar 55);
          Catalog.column "p_brand" (Char 10) ~dist:(D.Zipf { n = 25; skew = 0.3 });
          Catalog.column "p_type" (Varchar 25) ~dist:(D.Zipf { n = 150; skew = 0.3 });
          Catalog.column "p_size" Int ~dist:(D.Uniform (1.0, 50.0));
          Catalog.column "p_container" (Char 10)
            ~dist:(D.Zipf { n = 40; skew = 0.3 });
          Catalog.column "p_retailprice" Float
            ~dist:(D.Normal { mean = 1500.0; stddev = 400.0 });
        ];
      Catalog.table "partsupp" ~rows:(r 800_000)
        [
          Catalog.column "ps_partkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 200_000 - 1)));
          Catalog.column "ps_suppkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 10_000 - 1)));
          Catalog.column "ps_availqty" Int ~dist:(D.Uniform (1.0, 9999.0));
          Catalog.column "ps_supplycost" Float
            ~dist:(D.Normal { mean = 500.0; stddev = 250.0 });
        ];
      Catalog.table "orders" ~rows:(r 1_500_000)
        [
          Catalog.column "o_orderkey" Int ~dist:D.Serial;
          Catalog.column "o_custkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 150_000 - 1)));
          Catalog.column "o_orderstatus" (Char 1) ~dist:(D.Zipf { n = 3; skew = 0.5 });
          Catalog.column "o_totalprice" Float
            ~dist:(D.Normal { mean = 150_000.0; stddev = 60_000.0 });
          Catalog.column "o_orderdate" Date ~dist:(D.Uniform (8035.0, 10590.0));
          Catalog.column "o_orderpriority" (Char 15)
            ~dist:(D.Zipf { n = 5; skew = 0.2 });
          Catalog.column "o_shippriority" Int ~dist:(D.Uniform (0.0, 1.0));
        ];
      Catalog.table "lineitem" ~rows:(r 6_000_000)
        [
          Catalog.column "l_orderkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 1_500_000 - 1)));
          Catalog.column "l_partkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 200_000 - 1)));
          Catalog.column "l_suppkey" Int
            ~dist:(D.Uniform (0.0, float_of_int (r 10_000 - 1)));
          Catalog.column "l_linenumber" Int ~dist:(D.Uniform (1.0, 7.0));
          Catalog.column "l_quantity" Int ~dist:(D.Uniform (1.0, 50.0));
          Catalog.column "l_extendedprice" Float
            ~dist:(D.Normal { mean = 38_000.0; stddev = 23_000.0 });
          Catalog.column "l_discount" Float ~dist:(D.Uniform (0.0, 0.1));
          Catalog.column "l_tax" Float ~dist:(D.Uniform (0.0, 0.08));
          Catalog.column "l_returnflag" (Char 1) ~dist:(D.Zipf { n = 3; skew = 0.3 });
          Catalog.column "l_linestatus" (Char 1) ~dist:(D.Zipf { n = 2; skew = 0.2 });
          Catalog.column "l_shipdate" Date ~dist:(D.Uniform (8035.0, 10710.0));
          Catalog.column "l_commitdate" Date ~dist:(D.Uniform (8035.0, 10710.0));
          Catalog.column "l_receiptdate" Date ~dist:(D.Uniform (8035.0, 10740.0));
          Catalog.column "l_shipmode" (Char 10) ~dist:(D.Zipf { n = 7; skew = 0.2 });
        ];
    ]

(** The foreign-key join graph, used by the random workload generators. *)
let join_graph : (column * column) list =
  let c = Column.make in
  [
    (c "nation" "n_regionkey", c "region" "r_regionkey");
    (c "supplier" "s_nationkey", c "nation" "n_nationkey");
    (c "customer" "c_nationkey", c "nation" "n_nationkey");
    (c "partsupp" "ps_partkey", c "part" "p_partkey");
    (c "partsupp" "ps_suppkey", c "supplier" "s_suppkey");
    (c "orders" "o_custkey", c "customer" "c_custkey");
    (c "lineitem" "l_orderkey", c "orders" "o_orderkey");
    (c "lineitem" "l_partkey", c "part" "p_partkey");
    (c "lineitem" "l_suppkey", c "supplier" "s_suppkey");
  ]

(* The 22 query templates.  SQL text keeps the original query numbers. *)
let query_texts : (string * string) list =
  [
    ( "Q1",
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity), \
       SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate <= \
       10470 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, \
       l_linestatus" );
    ( "Q2",
      "SELECT supplier.s_acctbal, supplier.s_name, nation.n_name, \
       part.p_partkey FROM part, supplier, partsupp, nation, region WHERE \
       part.p_partkey = partsupp.ps_partkey AND supplier.s_suppkey = \
       partsupp.ps_suppkey AND supplier.s_nationkey = nation.n_nationkey \
       AND nation.n_regionkey = region.r_regionkey AND part.p_size = 15 AND \
       region.r_name = 2 ORDER BY supplier.s_acctbal DESC" );
    ( "Q3",
      "SELECT lineitem.l_orderkey, SUM(lineitem.l_extendedprice), \
       orders.o_orderdate, orders.o_shippriority FROM customer, orders, \
       lineitem WHERE customer.c_mktsegment = 1 AND customer.c_custkey = \
       orders.o_custkey AND lineitem.l_orderkey = orders.o_orderkey AND \
       orders.o_orderdate < 9210 AND lineitem.l_shipdate > 9210 GROUP BY \
       lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority \
       ORDER BY orders.o_orderdate" );
    ( "Q4",
      "SELECT orders.o_orderpriority, COUNT(*) FROM orders, lineitem WHERE \
       lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate >= \
       9305 AND orders.o_orderdate < 9400 AND lineitem.l_commitdate < \
       lineitem.l_receiptdate GROUP BY orders.o_orderpriority ORDER BY \
       orders.o_orderpriority" );
    ( "Q5",
      "SELECT nation.n_name, SUM(lineitem.l_extendedprice) FROM customer, \
       orders, lineitem, supplier, nation, region WHERE customer.c_custkey \
       = orders.o_custkey AND lineitem.l_orderkey = orders.o_orderkey AND \
       lineitem.l_suppkey = supplier.s_suppkey AND customer.c_nationkey = \
       supplier.s_nationkey AND supplier.s_nationkey = nation.n_nationkey \
       AND nation.n_regionkey = region.r_regionkey AND region.r_name = \
       3 AND orders.o_orderdate >= 8766 AND orders.o_orderdate < 9131 \
       GROUP BY nation.n_name ORDER BY nation.n_name" );
    ( "Q6",
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate >= 8766 \
       AND l_shipdate < 9131 AND l_discount >= 0.05 AND l_discount <= 0.07 \
       AND l_quantity < 24" );
    ( "Q7",
      "SELECT supplier.s_nationkey, customer.c_nationkey, \
       SUM(lineitem.l_extendedprice) FROM supplier, lineitem, orders, \
       customer WHERE supplier.s_suppkey = lineitem.l_suppkey AND \
       orders.o_orderkey = lineitem.l_orderkey AND customer.c_custkey = \
       orders.o_custkey AND lineitem.l_shipdate >= 9131 AND \
       lineitem.l_shipdate <= 9861 GROUP BY supplier.s_nationkey, \
       customer.c_nationkey" );
    ( "Q8",
      "SELECT orders.o_orderdate, SUM(lineitem.l_extendedprice) FROM part, \
       supplier, lineitem, orders, customer WHERE part.p_partkey = \
       lineitem.l_partkey AND supplier.s_suppkey = lineitem.l_suppkey AND \
       lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = \
       customer.c_custkey AND orders.o_orderdate >= 9131 AND \
       orders.o_orderdate <= 9861 AND part.p_type = 100 GROUP BY \
       orders.o_orderdate" );
    ( "Q9",
      "SELECT nation.n_name, SUM(lineitem.l_extendedprice) FROM part, \
       supplier, lineitem, partsupp, nation WHERE supplier.s_suppkey = \
       lineitem.l_suppkey AND partsupp.ps_suppkey = lineitem.l_suppkey AND \
       partsupp.ps_partkey = lineitem.l_partkey AND part.p_partkey = \
       lineitem.l_partkey AND supplier.s_nationkey = nation.n_nationkey \
       AND part.p_size > 40 GROUP BY nation.n_name" );
    ( "Q10",
      "SELECT customer.c_custkey, customer.c_name, \
       SUM(lineitem.l_extendedprice), customer.c_acctbal FROM customer, \
       orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND \
       lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate >= \
       9374 AND orders.o_orderdate < 9466 AND lineitem.l_returnflag = 1 \
       GROUP BY customer.c_custkey, customer.c_name, customer.c_acctbal" );
    ( "Q11",
      "SELECT partsupp.ps_partkey, SUM(partsupp.ps_supplycost) FROM \
       partsupp, supplier, nation WHERE partsupp.ps_suppkey = \
       supplier.s_suppkey AND supplier.s_nationkey = nation.n_nationkey \
       AND nation.n_name = 7 GROUP BY partsupp.ps_partkey" );
    ( "Q12",
      "SELECT lineitem.l_shipmode, COUNT(*) FROM orders, lineitem WHERE \
       orders.o_orderkey = lineitem.l_orderkey AND lineitem.l_shipmode \
       IN (3, 5) AND lineitem.l_commitdate < lineitem.l_receiptdate AND \
       lineitem.l_shipdate < lineitem.l_commitdate AND \
       lineitem.l_receiptdate >= 9497 AND lineitem.l_receiptdate < 9862 \
       GROUP BY lineitem.l_shipmode ORDER BY lineitem.l_shipmode" );
    ( "Q13",
      "SELECT customer.c_custkey, COUNT(*) FROM customer, orders WHERE \
       customer.c_custkey = orders.o_custkey AND orders.o_orderpriority \
       <> 1 GROUP BY customer.c_custkey" );
    ( "Q14",
      "SELECT SUM(lineitem.l_extendedprice) FROM lineitem, part WHERE \
       lineitem.l_partkey = part.p_partkey AND lineitem.l_shipdate >= 9497 \
       AND lineitem.l_shipdate < 9527" );
    ( "Q15",
      "SELECT lineitem.l_suppkey, SUM(lineitem.l_extendedprice) FROM \
       lineitem WHERE lineitem.l_shipdate >= 9527 AND lineitem.l_shipdate \
       < 9617 GROUP BY lineitem.l_suppkey" );
    ( "Q16",
      "SELECT part.p_brand, part.p_type, part.p_size, \
       COUNT(partsupp.ps_suppkey) FROM partsupp, part WHERE part.p_partkey \
       = partsupp.ps_partkey AND part.p_brand <> 5 AND part.p_size IN (1, \
       14, 23, 45) GROUP BY part.p_brand, part.p_type, part.p_size ORDER \
       BY part.p_brand" );
    ( "Q17",
      "SELECT SUM(lineitem.l_extendedprice) FROM lineitem, part WHERE \
       part.p_partkey = lineitem.l_partkey AND part.p_brand = 3 AND \
       part.p_container = 12 AND lineitem.l_quantity < 3" );
    ( "Q18",
      "SELECT customer.c_name, customer.c_custkey, orders.o_orderkey, \
       orders.o_orderdate, orders.o_totalprice, SUM(lineitem.l_quantity) \
       FROM customer, orders, lineitem WHERE customer.c_custkey = \
       orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey AND \
       orders.o_totalprice > 400000 GROUP BY customer.c_name, \
       customer.c_custkey, orders.o_orderkey, orders.o_orderdate, \
       orders.o_totalprice ORDER BY orders.o_totalprice DESC" );
    ( "Q19",
      "SELECT SUM(lineitem.l_extendedprice) FROM lineitem, part WHERE \
       part.p_partkey = lineitem.l_partkey AND part.p_brand = 12 AND \
       lineitem.l_quantity >= 1 AND lineitem.l_quantity <= 11 AND \
       part.p_size >= 1 AND part.p_size <= 5 AND lineitem.l_shipmode IN \
       (1, 2)" );
    ( "Q20",
      "SELECT supplier.s_name, supplier.s_acctbal FROM supplier, nation, \
       partsupp WHERE supplier.s_nationkey = nation.n_nationkey AND \
       partsupp.ps_suppkey = supplier.s_suppkey AND nation.n_name = \
       4 AND partsupp.ps_availqty > 5000 ORDER BY supplier.s_name" );
    ( "Q21",
      "SELECT supplier.s_name, COUNT(*) FROM supplier, lineitem, orders, \
       nation WHERE supplier.s_suppkey = lineitem.l_suppkey AND \
       orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderstatus = \
       1 AND lineitem.l_receiptdate > lineitem.l_commitdate AND \
       supplier.s_nationkey = nation.n_nationkey AND nation.n_name = \
       20 GROUP BY supplier.s_name ORDER BY supplier.s_name" );
    ( "Q22",
      "SELECT customer.c_nationkey, COUNT(*), SUM(customer.c_acctbal) FROM \
       customer WHERE c_acctbal > 7000 AND c_nationkey IN (13, 31, 23, 29, \
       30, 18, 17) GROUP BY customer.c_nationkey ORDER BY \
       customer.c_nationkey" );
  ]

(** The 22-query workload. *)
let workload () : Relax_sql.Query.workload =
  List.map
    (fun (qid, text) -> Relax_sql.Query.entry qid (Relax_sql.Parser.statement text))
    query_texts

(** A subset of the workload by query numbers (1-based). *)
let workload_subset numbers : Relax_sql.Query.workload =
  let n = List.length query_texts in
  List.iter
    (fun q ->
      if q < 1 || q > n then
        invalid_arg (Printf.sprintf "Tpch.workload_subset: no query %d" q))
    numbers;
  workload ()
  |> List.filteri (fun i _ -> List.mem (i + 1) numbers)

(** The dbgen-style refresh functions: RF1 inserts a batch of new orders
    with their lineitems; RF2 ages out old ones.  [scale] matches the
    catalog's; each pair touches ~0.1 % of the orders. *)
let refresh_workload ?(scale = 0.05) () : Relax_sql.Query.workload =
  let r = scale_rows scale in
  let k_orders = max 1 (r 1_500_000 / 1000) in
  let entry = Relax_sql.Query.entry in
  let stmt = Relax_sql.Parser.statement in
  [
    entry "RF1-orders" (stmt (Printf.sprintf "INSERT INTO orders ROWS %d" k_orders));
    entry "RF1-lineitem"
      (stmt (Printf.sprintf "INSERT INTO lineitem ROWS %d" (4 * k_orders)));
    entry "RF2-lineitem" (stmt "DELETE FROM lineitem WHERE l_shipdate < 8080");
    entry "RF2-orders" (stmt "DELETE FROM orders WHERE o_orderdate < 8080");
  ]
