(** The B-tree size model of §3.3.1.

    The size of an index is the sum of pages over the B-tree levels: leaf
    entries are key plus suffix columns (plus a rid for secondary indexes, or
    the whole row for clustered ones); internal entries are key columns plus
    a child pointer.  Leaf pages hold [PL = floor(page / WL)] entries,
    internal pages [PI = floor(page / WI)] — a partial entry does not fit,
    so capacities never round up; level 0 needs [S0 = ceil(rows / PL)]
    pages and level [i] needs [ceil(S_{i-1} / PI)], until a level fits in
    one page. *)

type params = {
  page_size : float;  (** bytes per page *)
  fill_factor : float;  (** usable fraction of a page *)
  rid_width : float;  (** bytes of a row identifier in secondary leaves *)
  pointer_width : float;  (** bytes of a child pointer in internal nodes *)
  page_overhead : float;  (** fixed per-page header bytes *)
}

let default_params =
  {
    page_size = 8192.0;
    fill_factor = 0.75;
    rid_width = 8.0;
    pointer_width = 8.0;
    page_overhead = 96.0;
  }

let usable p = (p.page_size -. p.page_overhead) *. p.fill_factor

(* Entries fitting one page.  The floor matters: rounding to nearest can
   round *up*, overstating fan-out and undersizing the structure — a
   configuration sized against the budget with a rounded-up capacity can
   exceed the real budget once built. *)
let leaf_capacity p leaf_width =
  Float.max 1.0 (Float.floor (usable p /. Float.max 1.0 leaf_width))

let internal_capacity p key_width =
  Float.max 2.0
    (Float.floor (usable p /. Float.max 1.0 (key_width +. p.pointer_width)))

(* Pages holding [rows] leaf entries (or heap rows) of width
   [leaf_width]. *)
let leaf_count p ~rows leaf_width =
  Float.ceil (Float.max 1.0 rows /. leaf_capacity p leaf_width)

(** Pages of a B-tree with [rows] leaf entries of width [leaf_width] and
    internal entries of width [key_width]. *)
let btree_pages ?(params = default_params) ~rows ~leaf_width ~key_width () =
  let rows = Float.max 1.0 rows in
  let pl = leaf_capacity params leaf_width in
  let pi = internal_capacity params key_width in
  let leaf_pages = Float.ceil (rows /. pl) in
  let rec levels acc s =
    if s <= 1.0 then acc
    else
      let s' = Float.ceil (s /. pi) in
      levels (acc +. s') s'
  in
  levels leaf_pages leaf_pages

(** Number of B-tree levels above the leaves (the seek descent length). *)
let btree_height ?(params = default_params) ~rows ~leaf_width ~key_width () =
  let rows = Float.max 1.0 rows in
  let pl = leaf_capacity params leaf_width in
  let pi = internal_capacity params key_width in
  let rec go h s = if s <= 1.0 then h else go (h + 1) (Float.ceil (s /. pi)) in
  go 0 (Float.ceil (rows /. pl))

(** Width accounting for an index: [width_of c] must resolve every key and
    suffix column; [row_width] is the full row width of the owning table
    (used for clustered indexes, whose leaves are the rows). *)
let index_widths ~width_of ~row_width (i : Index.t) =
  let key_width =
    List.fold_left (fun acc c -> acc +. width_of c) 0.0 i.keys
  in
  let leaf_width =
    if i.clustered then Float.max key_width row_width
    else
      Relax_sql.Types.Column_set.fold
        (fun c acc -> acc +. width_of c)
        i.suffix key_width
      +. default_params.rid_width
  in
  (key_width, leaf_width)

(** Size in bytes of an index over a relation with [rows] rows. *)
let index_bytes ?(params = default_params) ~rows ~width_of ~row_width
    (i : Index.t) =
  let key_width, leaf_width = index_widths ~width_of ~row_width i in
  btree_pages ~params ~rows ~leaf_width ~key_width () *. params.page_size

(** Leaf page count (what scans and range seeks touch). *)
let leaf_pages ?(params = default_params) ~rows ~width_of ~row_width
    (i : Index.t) =
  let _, leaf_width = index_widths ~width_of ~row_width i in
  leaf_count params ~rows leaf_width

(** Leaf pages and B-tree height (seek descent cost in page reads) from
    one width resolution. *)
let geometry ?(params = default_params) ~rows ~width_of ~row_width
    (i : Index.t) =
  let key_width, leaf_width = index_widths ~width_of ~row_width i in
  ( leaf_count params ~rows leaf_width,
    btree_height ~params ~rows ~leaf_width ~key_width () )

(** Pages of a heap holding [rows] rows of width [row_width]. *)
let heap_pages ?(params = default_params) ~rows ~row_width () =
  leaf_count params ~rows row_width

let mb bytes = bytes /. (1024.0 *. 1024.0)
let gb bytes = bytes /. (1024.0 *. 1024.0 *. 1024.0)

let pp_bytes ppf b =
  if b >= 1024.0 *. 1024.0 *. 1024.0 then Fmt.pf ppf "%.2f GB" (gb b)
  else if b >= 1024.0 *. 1024.0 then Fmt.pf ppf "%.1f MB" (mb b)
  else Fmt.pf ppf "%.0f KB" (b /. 1024.0)
