(** The B-tree size model of §3.3.1.

    An index's size is the sum of pages over the B-tree levels: leaf entries
    hold key plus suffix columns (plus a rid in secondary indexes, or the
    whole row in clustered ones); internal entries hold key columns plus a
    child pointer.  [PL = page/WL] entries fit a leaf page, [PI = page/WI]
    an internal page; level 0 takes [ceil(rows/PL)] pages and level [i]
    takes [ceil(S_{i-1}/PI)]. *)

type params = {
  page_size : float;
  fill_factor : float;
  rid_width : float;
  pointer_width : float;
  page_overhead : float;
}

val default_params : params
(** 8 KiB pages, 75 % fill, 8-byte rids and pointers, 96-byte headers. *)

val btree_pages :
  ?params:params -> rows:float -> leaf_width:float -> key_width:float ->
  unit -> float

val btree_height :
  ?params:params -> rows:float -> leaf_width:float -> key_width:float ->
  unit -> int
(** Levels above the leaves: the random reads of one seek descent. *)

val index_bytes :
  ?params:params ->
  rows:float ->
  width_of:(Relax_sql.Types.column -> float) ->
  row_width:float ->
  Index.t ->
  float
(** Size in bytes of an index over a relation with [rows] rows;
    [width_of] resolves column widths, [row_width] is the full row width
    (clustered leaves). *)

val leaf_pages :
  ?params:params ->
  rows:float ->
  width_of:(Relax_sql.Types.column -> float) ->
  row_width:float ->
  Index.t ->
  float
(** Leaf page count: what scans and range seeks touch. *)

val geometry :
  ?params:params ->
  rows:float ->
  width_of:(Relax_sql.Types.column -> float) ->
  row_width:float ->
  Index.t ->
  float * int
(** [(leaf_pages, height)]: the {!leaf_pages} count and the levels above
    the leaves, resolving the index's widths once. *)

val heap_pages : ?params:params -> rows:float -> row_width:float -> unit -> float

val mb : float -> float
val gb : float -> float
val pp_bytes : Format.formatter -> float -> unit
