(** Relaxation transformations (§3.1).

    A transformation replaces one or two physical structures of a
    configuration by smaller, generally less efficient ones.  Indexes
    support merging, splitting, prefixing, promotion to clustered and
    removal; views support merging (with promotion of their indexes onto
    the merged view) and removal. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config

type t =
  | Merge_indexes of Index.t * Index.t
  | Split_indexes of Index.t * Index.t
  | Prefix_index of Index.t * Index.t  (** original, replacement prefix *)
  | Promote_clustered of Index.t
  | Remove_index of Index.t
  | Merge_views of View.t * View.t
  | Remove_view of View.t

let pp ppf = function
  | Merge_indexes (a, b) -> Fmt.pf ppf "merge(%a, %a)" Index.pp a Index.pp b
  | Split_indexes (a, b) -> Fmt.pf ppf "split(%a, %a)" Index.pp a Index.pp b
  | Prefix_index (a, p) -> Fmt.pf ppf "prefix(%a -> %a)" Index.pp a Index.pp p
  | Promote_clustered i -> Fmt.pf ppf "promote(%a)" Index.pp i
  | Remove_index i -> Fmt.pf ppf "remove(%a)" Index.pp i
  | Merge_views (a, b) -> Fmt.pf ppf "vmerge(%s, %s)" (View.name a) (View.name b)
  | Remove_view v -> Fmt.pf ppf "vremove(%s)" (View.name v)

(** Stable identity, for bookkeeping of already-tried transformations. *)
let id t = Fmt.str "%a" pp t

(** Stable per-constructor label (metric and trace keys). *)
let kind = function
  | Merge_indexes _ -> "merge_indexes"
  | Split_indexes _ -> "split_indexes"
  | Prefix_index _ -> "prefix_index"
  | Promote_clustered _ -> "promote_clustered"
  | Remove_index _ -> "remove_index"
  | Merge_views _ -> "merge_views"
  | Remove_view _ -> "remove_view"

let adds_structures = function
  | Remove_index _ | Remove_view _ -> false
  | Merge_indexes _ | Split_indexes _ | Prefix_index _ | Promote_clustered _
  | Merge_views _ -> true

(** The index structures a transformation takes out of the configuration,
    an input it yields back included. *)
let removed_indexes config = function
  | Merge_indexes (a, b) | Split_indexes (a, b) -> [ a; b ]
  | Prefix_index (a, _) -> [ a ]
  | Promote_clustered i -> [ i ]
  | Remove_index i -> [ i ]
  | Merge_views (a, b) ->
    Config.indexes_on config (View.name a) @ Config.indexes_on config (View.name b)
  | Remove_view v -> Config.indexes_on config (View.name v)

(** The views a transformation removes. *)
let removed_views = function
  | Merge_views (a, b) -> [ a; b ]
  | Remove_view v -> [ v ]
  | Merge_indexes _ | Split_indexes _ | Prefix_index _ | Promote_clustered _
  | Remove_index _ -> []

(* Promote an index from a pre-merge view onto the merged view: keys map
   column-wise (the key sequence is cut at the first unmappable column);
   suffix columns that cannot be mapped are dropped. *)
let promote_index_onto_merged ~(remap : column -> column option) (i : Index.t) :
    Index.t option =
  let rec map_keys acc = function
    | [] -> List.rev acc
    | k :: rest -> (
      match remap k with
      | Some k' -> map_keys (k' :: acc) rest
      | None -> List.rev acc)
  in
  let keys = map_keys [] i.keys in
  match keys with
  | [] -> None
  | keys ->
    let suffix =
      Column_set.fold
        (fun c acc ->
          match remap c with Some c' -> Column_set.add c' acc | None -> acc)
        i.suffix Column_set.empty
    in
    Some (Index.make ~clustered:i.clustered ~keys ~suffix ())

(** Apply a transformation, returning the new configuration with the
    indexes it adds.  [estimate_rows] supplies the cardinality estimate for
    a freshly merged view (§3.3.1 uses the optimizer's cardinality module
    for this).  Returns [None] when the transformation no longer applies
    to [config]. *)
let apply_delta ~(estimate_rows : View.t -> float) (config : Config.t) (t : t)
    : (Config.t * Index.t list) option =
  match t with
  | Remove_index i ->
    if Config.mem_index config i then Some (Config.remove_index config i, [])
    else None
  | Remove_view v ->
    if Config.mem_view config v then Some (Config.remove_view config v, [])
    else None
  | Prefix_index (i, p) ->
    if Config.mem_index config i then
      Some (Config.add_index (Config.remove_index config i) p, [ p ])
    else None
  | Promote_clustered i ->
    if
      Config.mem_index config i && (not i.clustered)
      && Config.clustered_on config (Index.owner i) = None
    then
      let p = Index.promote i in
      Some (Config.add_index (Config.remove_index config i) p, [ p ])
    else None
  | Merge_indexes (a, b) ->
    if Config.mem_index config a && Config.mem_index config b then begin
      let m = Index.merge a b in
      let config = Config.remove_index (Config.remove_index config a) b in
      (* keep the configuration's single-clustered-per-relation invariant *)
      let m =
        if m.clustered && Config.clustered_on config (Index.owner m) <> None
        then Index.demote m
        else m
      in
      Some (Config.add_index config m, [ m ])
    end
    else None
  | Split_indexes (a, b) ->
    if Config.mem_index config a && Config.mem_index config b then
      match Index.split a b with
      | None -> None
      | Some (ic, ir1, ir2) ->
        let added = ic :: List.filter_map Fun.id [ ir1; ir2 ] in
        let config = Config.remove_index (Config.remove_index config a) b in
        Some (List.fold_left Config.add_index config added, added)
    else None
  | Merge_views (a, b) ->
    if Config.mem_view config a && Config.mem_view config b then
      match View.merge a b with
      | None -> None
      | Some { merged; remap1; remap2 } ->
        if Config.mem_view config merged then None
        else begin
          let ia = Config.indexes_on config (View.name a) in
          let ib = Config.indexes_on config (View.name b) in
          let config = Config.remove_view (Config.remove_view config a) b in
          let rows = estimate_rows merged in
          let config = Config.add_view config merged ~rows in
          let promoted =
            List.filter_map (promote_index_onto_merged ~remap:remap1) ia
            @ List.filter_map (promote_index_onto_merged ~remap:remap2) ib
          in
          (* exactly one clustered index on the merged view *)
          let has_clustered, added =
            List.fold_left_map
              (fun seen (i : Index.t) ->
                let i = if i.clustered && seen then Index.demote i else i in
                (seen || i.clustered, i))
              false promoted
          in
          let added =
            if has_clustered then added
            else begin
              match View.outputs merged with
              | [] -> added
              | (_, first) :: _ ->
                added
                @ [
                    Index.make ~clustered:true
                      ~keys:[ View.column_of_item merged first ]
                      ~suffix:Column_set.empty ();
                  ]
            end
          in
          Some (List.fold_left Config.add_index config added, added)
        end
    else None

let apply ~estimate_rows config t =
  Option.map fst (apply_delta ~estimate_rows config t)

let gone_indexes config t config' =
  List.filter (fun i -> not (Config.mem_index config' i)) (removed_indexes config t)

let changed_indexes config t (config', added) =
  ( Index.Set.of_list (gone_indexes config t config'),
    List.fold_left
      (fun s i -> if Config.mem_index config i then s else Index.Set.add i s)
      Index.Set.empty added )

(* ------------------------------------------------------------------ *)
(* enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(** All transformations applicable to [config].  Structures present in
    [protected] (the base configuration of constraint-enforcing indexes)
    are never transformed. *)
let enumerate ?(protected = Config.empty) (config : Config.t) : t list =
  let indexes =
    List.filter
      (fun i -> not (Config.mem_index protected i))
      (Config.indexes config)
  in
  let views =
    List.filter
      (fun v -> not (Config.mem_view protected v))
      (Config.views config)
  in
  let by_owner = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let o = Index.owner i in
      Hashtbl.replace by_owner o (i :: (Option.value ~default:[] (Hashtbl.find_opt by_owner o))))
    indexes;
  let acc = ref [] in
  let push t = acc := t :: !acc in
  (* removals *)
  List.iter (fun i -> push (Remove_index i)) indexes;
  List.iter (fun v -> push (Remove_view v)) views;
  (* prefixing *)
  List.iter
    (fun i -> List.iter (fun p -> push (Prefix_index (i, p))) (Index.prefixes i))
    indexes;
  (* promotion to clustered *)
  List.iter
    (fun (i : Index.t) ->
      if (not i.clustered) && Config.clustered_on config (Index.owner i) = None
      then push (Promote_clustered i))
    indexes;
  (* same-relation merges and splits; owners are walked in sorted order —
     Hashtbl iteration order must never leak into transform enumeration
     (candidate tie-breaks preserve generation order) *)
  List.iter
    (fun owner ->
      let group =
        Option.value ~default:[] (Hashtbl.find_opt by_owner owner)
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Index.compare a b < 0 then begin
                push (Merge_indexes (a, b));
                push (Merge_indexes (b, a));
                if Index.split a b <> None then push (Split_indexes (a, b))
              end)
            group)
        group)
    (List.sort_uniq String.compare (List.map Index.owner indexes));
  (* view merges: same FROM set *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if
            View.compare a b < 0
            && (View.definition a).tables = (View.definition b).tables
          then push (Merge_views (a, b)))
        views)
    views;
  !acc
