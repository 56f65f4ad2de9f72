(** Single-relation access-path selection — the optimizer's unique entry
    point for physical index strategies (§2, Figure 2).

    Given a request [(S, N, O, A)] and the indexes available in the current
    configuration, the generated plans instantiate the paper's template
    tree: index seeks or scans at the leaves, binary rid intersections, an
    optional rid lookup for missing columns, an optional filter for
    non-sargable predicates, and an optional sort to enforce order
    (Figure 1 shows three instances).  The cheapest alternative wins. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr
module P = Cost_params

(* ------------------------------------------------------------------ *)
(* plan-construction helpers                                           *)
(* ------------------------------------------------------------------ *)

let width_of_cols env cols =
  Column_set.fold (fun c acc -> acc +. Env.width_of env c) cols 8.0

let pages_of env ~rows ~cols =
  Float.max 1.0 (rows *. width_of_cols env cols /. Size_model.default_params.page_size)

(** Direction-insensitive prefix test: the delivered order satisfies the
    required one if required columns are a prefix of delivered columns. *)
let order_satisfied ~delivered ~required =
  required = []
  ||
  let rec go d r =
    match (d, r) with
    | _, [] -> true
    | [], _ -> false
    | (dc, _) :: d', (rc, _) :: r' -> Column.equal dc rc && go d' r'
  in
  go delivered required

let mk node ~rows ~cost ~order ~cols : Plan.t =
  { node; rows; cost; out_order = order; out_cols = cols }

let add_filter env (plan : Plan.t) ~ranges ~param ~others : Plan.t =
  if ranges = [] && param = [] && others = [] then plan
  else begin
    let sel =
      Selectivity.local env ~ranges ~others
      *. List.fold_left (fun acc c -> acc *. Selectivity.param_eq env c) 1.0 param
    in
    let rows = Float.max 1.0 (plan.rows *. sel) in
    let cost = plan.cost +. (plan.rows *. P.cpu_eval) in
    mk (Filter { input = plan; ranges; others }) ~rows ~cost
      ~order:plan.out_order ~cols:plan.out_cols
  end

let add_sort env (plan : Plan.t) ~required : Plan.t =
  if order_satisfied ~delivered:plan.out_order ~required then plan
  else begin
    let pages = pages_of env ~rows:plan.rows ~cols:plan.out_cols in
    let cost = plan.cost +. P.sort_cost ~rows:plan.rows ~pages in
    mk (Sort { input = plan; order = required }) ~rows:plan.rows ~cost
      ~order:required ~cols:plan.out_cols
  end

let add_lookup env (plan : Plan.t) ~rel : Plan.t =
  let table_pages = Env.table_pages env rel in
  let clustered = Env.clustered_on env rel <> None in
  let cost =
    plan.cost +. P.rid_lookup_cost ~rows:plan.rows ~table_pages ~clustered
  in
  let cols = Env.column_set env rel in
  mk (Rid_lookup { input = plan; rel }) ~rows:plan.rows ~cost ~order:[]
    ~cols

(* ------------------------------------------------------------------ *)
(* seek-prefix analysis                                                *)
(* ------------------------------------------------------------------ *)

type seek = {
  seek_sel : float;
  seek_cols : column list;  (** key prefix actually sought *)
  used_ranges : Predicate.range list;
  used_params : column list;
}

(** Longest usable key prefix for a seek: equality constraints extend the
    prefix, one trailing non-equality range closes it. *)
let seek_of env (r : Request.t) (i : Index.t) : seek option =
  let find_range c =
    List.find_opt (fun (rg : Predicate.range) -> Column.equal rg.rcol c) r.ranges
  in
  let rec go keys acc =
    match keys with
    | [] -> acc
    | k :: rest -> (
      match find_range k with
      | Some rg when Predicate.is_equality rg ->
        go rest
          {
            acc with
            seek_sel = acc.seek_sel *. Selectivity.range env rg;
            seek_cols = k :: acc.seek_cols;
            used_ranges = rg :: acc.used_ranges;
          }
      | Some rg ->
        (* a non-equality range closes the prefix *)
        {
          acc with
          seek_sel = acc.seek_sel *. Selectivity.range env rg;
          seek_cols = k :: acc.seek_cols;
          used_ranges = rg :: acc.used_ranges;
        }
      | None ->
        if List.exists (Column.equal k) r.param_eq then
          go rest
            {
              acc with
              seek_sel = acc.seek_sel *. Selectivity.param_eq env k;
              seek_cols = k :: acc.seek_cols;
              used_params = k :: acc.used_params;
            }
        else acc)
  in
  let s =
    go i.keys
      { seek_sel = 1.0; seek_cols = []; used_ranges = []; used_params = [] }
  in
  if s.seek_cols = [] then None
  else
    Some
      {
        s with
        seek_cols = List.rev s.seek_cols;
        used_ranges = List.rev s.used_ranges;
        used_params = List.rev s.used_params;
      }

(* ------------------------------------------------------------------ *)
(* candidate generation                                                *)
(* ------------------------------------------------------------------ *)

type candidate = { plan : Plan.t; usages : Plan.index_usage list }

(* What every path over one index reads of it, computed once per
   selection: the relation's rows, the index's leaf pages and height, the
   columns it makes available, and the seek its keys allow. *)
type index_info = {
  index : Index.t;
  rows : float;
  leaf : float;
  height : float;
  avail : Column_set.t;
  seek : seek option;
}

let index_info env (r : Request.t) ~rows ~row_width (i : Index.t) =
  let leaf, height =
    Size_model.geometry ~rows ~width_of:(Env.width_of env) ~row_width i
  in
  let avail =
    if i.clustered then Env.column_set env r.rel
    else Index.columns i
  in
  {
    index = i;
    rows;
    leaf;
    height = float_of_int height;
    avail;
    seek = seek_of env r i;
  }

(* Finish an index access: pre-lookup filter on index columns, rid lookup if
   the index does not cover, post-lookup filter, and a sort when the request
   demands an unsatisfied order.  Every step adds a non-negative cost. *)
let finish_index_access env (r : Request.t) ~base ~avail ~consumed_ranges
    ~consumed_params ?(consumed_others = []) () : Plan.t =
  let residual_ranges =
    List.filter
      (fun (rg : Predicate.range) ->
        not (List.memq rg consumed_ranges))
      r.ranges
  in
  let residual_params =
    List.filter
      (fun c -> not (List.exists (Column.equal c) consumed_params))
      r.param_eq
  in
  let residual_others_all =
    List.filter (fun e -> not (List.memq e consumed_others)) r.others
  in
  let evaluable cols e = Column_set.subset (Expr.columns e) cols in
  let pre_ranges, post_ranges =
    List.partition (fun (rg : Predicate.range) -> Column_set.mem rg.rcol avail) residual_ranges
  in
  let pre_params, post_params =
    List.partition (fun c -> Column_set.mem c avail) residual_params
  in
  let pre_others, post_others =
    List.partition (evaluable avail) residual_others_all
  in
  let plan = add_filter env base ~ranges:pre_ranges ~param:pre_params ~others:pre_others in
  let covered = Column_set.subset r.cols avail in
  let plan = if covered then plan else add_lookup env plan ~rel:r.rel in
  let plan =
    if covered then begin
      assert (post_ranges = [] && post_params = [] && post_others = []);
      plan
    end
    else add_filter env plan ~ranges:post_ranges ~param:post_params ~others:post_others
  in
  add_sort env plan ~required:r.order

let heap_candidate env (r : Request.t) : candidate =
  let rel = r.rel in
  let rows = Env.rows env rel in
  let pages = Env.table_pages env rel in
  let all_cols = Env.column_set env rel in
  let clustered = Env.clustered_on env rel in
  let order =
    match clustered with
    | Some ci -> List.map (fun c -> (c, Asc)) ci.keys
    | None -> []
  in
  let base =
    mk (Plan.Seq_scan rel) ~rows
      ~cost:((pages *. P.seq_page) +. (rows *. P.cpu_tuple))
      ~order ~cols:all_cols
  in
  let plan =
    add_filter env base ~ranges:r.ranges ~param:r.param_eq ~others:r.others
  in
  let plan = add_sort env plan ~required:r.order in
  let usages =
    match clustered with
    | Some ci -> [ { Plan.index = ci; kind = Scan; rows_touched = rows } ]
    | None -> []
  in
  { plan; usages }

(* the bare seek of [x.seek]'s key prefix *)
let seek_plan (x : index_info) (s : seek) : Plan.t =
  let touched = Float.max 1.0 (x.rows *. s.seek_sel) in
  let io =
    (x.height *. P.rand_page)
    +. (Float.max 1.0 (Float.ceil (s.seek_sel *. x.leaf)) *. P.seq_page)
  in
  mk
    (Plan.Index_seek { index = x.index; sel = s.seek_sel; seek_cols = s.seek_cols })
    ~rows:touched
    ~cost:(io +. (touched *. P.cpu_tuple))
    ~order:(List.map (fun c -> (c, Asc)) x.index.keys)
    ~cols:x.avail

let seek_candidate env (r : Request.t) (x : index_info) (s : seek) : candidate
    =
  let base = seek_plan x s in
  let plan =
    finish_index_access env r ~base ~avail:x.avail
      ~consumed_ranges:s.used_ranges ~consumed_params:s.used_params ()
  in
  {
    plan;
    usages =
      [
        {
          Plan.index = x.index;
          kind = Seek { sel = s.seek_sel; seek_cols = s.seek_cols };
          rows_touched = base.rows;
        };
      ];
  }

(* A full scan's cost before finishing: what [scan_candidate] starts
   from, and so a floor under the scan path's cost. *)
let scan_base_cost (x : index_info) =
  (x.leaf *. P.seq_page) +. (x.rows *. P.cpu_tuple)

let scan_candidate env (r : Request.t) (x : index_info) : candidate =
  let base =
    mk (Plan.Index_scan x.index) ~rows:x.rows ~cost:(scan_base_cost x)
      ~order:(List.map (fun c -> (c, Asc)) x.index.keys)
      ~cols:x.avail
  in
  let plan =
    finish_index_access env r ~base ~avail:x.avail ~consumed_ranges:[]
      ~consumed_params:[] ()
  in
  {
    plan;
    usages = [ { Plan.index = x.index; kind = Scan; rows_touched = x.rows } ];
  }

(* Multi-point seeks for IN-list predicates (the "unions" of the paper's
   plan template, Figure 1): one seek per listed value on an index whose
   leading key is the listed column, rids unioned. *)
let union_candidates env (r : Request.t) infos : candidate list =
  List.concat_map
    (fun e ->
      match e with
      | Expr.In_list (Expr.Col c, vs) when c.tbl = r.rel && vs <> [] ->
        List.filter_map
          (fun (x : index_info) ->
            match x.index.keys with
            | k :: _ when Column.equal k c ->
              let sel = Selectivity.other env e in
              let out_rows = Float.max 1.0 (x.rows *. sel) in
              let points = List.length vs in
              let io =
                float_of_int points
                *. ((x.height *. P.rand_page) +. P.seq_page)
              in
              let base =
                mk
                  (Plan.Rid_union { index = x.index; points; rows = out_rows })
                  ~rows:out_rows
                  ~cost:(io +. (out_rows *. (P.cpu_tuple +. P.cpu_hash)))
                  ~order:[]
                  ~cols:x.avail
              in
              let plan =
                finish_index_access env r ~base ~avail:x.avail
                  ~consumed_ranges:[] ~consumed_params:[]
                  ~consumed_others:[ e ] ()
              in
              Some
                {
                  plan;
                  usages =
                    [
                      {
                        Plan.index = x.index;
                        kind = Seek { sel; seek_cols = [ c ] };
                        rows_touched = out_rows;
                      };
                    ];
                }
            | _ -> None)
          infos
      | _ -> [])
    r.others

let intersection_candidates env (r : Request.t) seekable : candidate list =
  (* only worthwhile between selective secondary seeks *)
  let sorted =
    List.sort
      (fun (_, s1) (_, s2) -> Float.compare s1.seek_sel s2.seek_sel)
      seekable
  in
  let top = List.filteri (fun k _ -> k < 4) sorted in
  let pairs =
    List.concat_map
      (fun ((x1 : index_info), s1) ->
        List.filter_map
          (fun ((x2 : index_info), s2) ->
            if Index.compare x1.index x2.index < 0 then
              Some ((x1, s1), (x2, s2))
            else None)
          top)
      top
  in
  List.filter_map
    (fun (((x1 : index_info), s1), ((x2 : index_info), s2)) ->
      if s1.seek_sel >= 0.5 || s2.seek_sel >= 0.5 then None
      else begin
        let p1 = seek_plan x1 s1 and p2 = seek_plan x2 s2 in
        let rows_base = Env.rows env r.rel in
        (* combined selectivity over the *distinct* predicates the two seeks
           consumed: both indexes may seek the same range (e.g. two indexes
           keyed on the same column), and multiplying the per-seek
           selectivities would then double-count it — yielding an output
           cardinality below what the request logically returns, which in
           turn breaks the relaxation bound's local-patching argument
           (access cardinality must depend on the request, not the path) *)
        let distinct_ranges =
          List.fold_left
            (fun acc (rg : Predicate.range) ->
              if List.memq rg acc then acc else rg :: acc)
            [] (s1.used_ranges @ s2.used_ranges)
        in
        let distinct_params =
          List.fold_left
            (fun acc c ->
              if List.exists (Column.equal c) acc then acc else c :: acc)
            [] (s1.used_params @ s2.used_params)
        in
        let combined_sel =
          List.fold_left
            (fun acc rg -> acc *. Selectivity.range env rg)
            1.0 distinct_ranges
          *. List.fold_left
               (fun acc c -> acc *. Selectivity.param_eq env c)
               1.0 distinct_params
        in
        let out_rows = Float.max 1.0 (rows_base *. combined_sel) in
        let inter =
          mk
            (Plan.Rid_intersect (p1, p2))
            ~rows:out_rows
            ~cost:(p1.cost +. p2.cost +. ((p1.rows +. p2.rows) *. P.cpu_hash))
            ~order:[]
            ~cols:(Column_set.union p1.out_cols p2.out_cols)
        in
        let consumed_ranges = s1.used_ranges @ s2.used_ranges in
        let consumed_params = s1.used_params @ s2.used_params in
        let plan =
          finish_index_access env r ~base:inter ~avail:inter.out_cols
            ~consumed_ranges ~consumed_params ()
        in
        Some
          {
            plan;
            usages =
              [
                {
                  Plan.index = x1.index;
                  kind = Seek { sel = s1.seek_sel; seek_cols = s1.seek_cols };
                  rows_touched = p1.rows;
                };
                {
                  Plan.index = x2.index;
                  kind = Seek { sel = s2.seek_sel; seek_cols = s2.seek_cols };
                  rows_touched = p2.rows;
                };
              ];
          }
      end)
    pairs

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* the strictly cheaper of two paths; a tie keeps the earlier one *)
let cheaper (acc : candidate) (c : candidate) =
  if c.plan.cost < acc.plan.cost then c else acc

(** Pick the cheapest physical strategy for an index request; fires the
    [on_index_request] hook first, so by the time plans are generated the
    tuner may already have simulated new structures (the caller re-invokes
    optimization in that case — see the tuner's instrumentation loop). *)
let best env ?hooks ?via_view (r : Request.t) : Plan.t =
  Relax_obs.Probe.count "access_path.requests";
  Hooks.fire_index hooks r;
  let rows = Env.rows env r.rel and row_width = Env.row_width env r.rel in
  let infos =
    List.map (index_info env r ~rows ~row_width) (Env.indexes_on env r.rel)
  in
  let seekable =
    List.filter_map
      (fun (x : index_info) -> Option.map (fun s -> (x, s)) x.seek)
      infos
  in
  let heap = heap_candidate env r in
  let best =
    List.fold_left
      (fun acc (x, s) -> cheaper acc (seek_candidate env r x s))
      heap seekable
  in
  (* a scan whose unfinished cost already reaches the best so far cannot
     win: finishing only adds *)
  let best, pruned =
    List.fold_left
      (fun (best, pruned) x ->
        if scan_base_cost x >= best.plan.cost then (best, pruned + 1)
        else (cheaper best (scan_candidate env r x), pruned))
      (best, 0) infos
  in
  if pruned > 0 then Relax_obs.Probe.count_n "access_path.paths_pruned" pruned;
  let best =
    List.fold_left cheaper best
      (intersection_candidates env r seekable @ union_candidates env r infos)
  in
  let sorted =
    match best.plan.node with Plan.Sort _ -> true | _ -> false
  in
  let info =
    {
      Plan.rel = r.rel;
      request = r;
      usages = best.usages;
      via_view = via_view;
      access_cost = best.plan.cost;
      access_rows = best.plan.rows;
      sorted;
      executions = 1.0;
    }
  in
  {
    best.plan with
    node = Plan.Access { info; input = best.plan };
  }

(* Everything [best] reads besides the catalog, in two parts: the
   request, and the indexes on [r.rel] in the order [Env.indexes_on] lists
   them (ties between equally cheap paths go to the first) with the row
   estimate of [r.rel] when it is a view.  A view's definition is its
   name, a digest of the definition.  A request whose sargable columns
   name another relation adds that relation's row estimate.  The writers
   close over one local buffer and length-prefix strings as
   [Request.fingerprint] does. *)

let request_key r = Digest.string (Request.fingerprint r)

(* An index's columns are [rel]'s, so only their names are written.  The
   buffer is sized for the usual few columns per index and stays below
   the minor heap's largest block: a key built in the major heap would
   churn it. *)
let relation_key env rel =
  let indexes = Env.indexes_on env rel in
  let b = Buffer.create (min 2000 ((64 * List.length indexes) + 16)) in
  let rec uint n =
    if n < 128 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 127 lor 128));
      uint (n lsr 7)
    end
  in
  let str s =
    uint (String.length s);
    Buffer.add_string b s
  in
  List.iter
    (fun (i : Index.t) ->
      Buffer.add_char b (if i.clustered then 'c' else 'n');
      uint (List.length i.keys);
      List.iter (fun (c : column) -> str c.col) i.keys;
      uint (Column_set.cardinal i.suffix);
      Column_set.iter (fun (c : column) -> str c.col) i.suffix)
    indexes;
  (match Config.find_view env.Env.config rel with
  | Some (_, rows) ->
    Buffer.add_char b 'v';
    Buffer.add_int64_le b (Int64.bits_of_float rows)
  | None -> Buffer.add_char b 't');
  Digest.string (Buffer.contents b)

(* sargable columns are [r.rel]'s in every request the optimizer and the
   bounds build; one of another relation reads that relation's row
   estimate when it is a view *)
let foreign_free (r : Request.t) =
  let own (c : column) = String.equal c.tbl r.rel in
  List.for_all (fun (rg : Predicate.range) -> own rg.rcol) r.ranges
  && List.for_all own r.param_eq

(* The key is a digest itself, not the two parts side by side: a memo
   holds tens of thousands of keys, and 16 bytes each keep it as small as
   a whole-selection digest did. *)
let compose_key env ~request_key ~relation_key (r : Request.t) =
  if foreign_free r then Digest.string (request_key ^ relation_key)
  else begin
    let b = Buffer.create 64 in
    Buffer.add_string b request_key;
    Buffer.add_string b relation_key;
    let foreign (c : column) =
      if not (String.equal c.tbl r.rel) then
        match Config.find_view env.Env.config c.tbl with
        | Some (_, rows) ->
          Buffer.add_char b 'v';
          Buffer.add_int64_le b (Int64.bits_of_float rows)
        | None -> Buffer.add_char b 't'
    in
    List.iter (fun (rg : Predicate.range) -> foreign rg.rcol) r.ranges;
    List.iter foreign r.param_eq;
    Digest.string (Buffer.contents b)
  end

let selection_key env (r : Request.t) =
  compose_key env ~request_key:(request_key r)
    ~relation_key:(relation_key env r.rel) r
