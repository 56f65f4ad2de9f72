(* Rule implementations as queries over the call graph and the solved
   effect signatures (see the interface for the catalogue). *)

module E = Effects
module C = Callgraph

type scope = {
  in_obs : bool;
  in_costing : bool;
  in_intdiv : bool;
  in_core : bool;
  in_lock : bool;
}

type graph = {
  sigs : E.signature_ E.SMap.t;
  node_by_id : (string, C.node) Hashtbl.t;
  resolve : C.target -> string list;
}

let finding ~rule ~message ~suggestion (l : E.loc) =
  Finding.make ~rule ~file:l.file ~line:l.line ~col:l.col ~message ~suggestion

(* ------------------------------------------------------------------ *)
(* provenance rendering                                                *)
(* ------------------------------------------------------------------ *)

let path_string g start src =
  let ids, w = E.chain g.sigs start src in
  let base = String.concat " -> " ids in
  match w with
  | Some w ->
    Printf.sprintf "%s -> %s (%s:%d)" base w.E.w_detail w.E.w_loc.file
      w.E.w_loc.line
  | None -> base

let grounded_witness g start src =
  let _, w = E.chain g.sigs start src in
  w

(* ------------------------------------------------------------------ *)
(* L1: module-level mutable state                                     *)
(* ------------------------------------------------------------------ *)

let l1 (a : C.analysis) =
  List.map
    (fun (kind, name, loc) ->
      finding ~rule:"L1"
        ~message:
          (Printf.sprintf
             "module-level mutable %s `%s`; any module's code can run on a \
              Relax_parallel.Pool worker domain"
             kind name)
        ~suggestion:
          "use Atomic.t, guard every access with a Mutex (and waive with a \
           reason), or move the state into per-call scope"
        loc)
    a.C.a_mutables

(* ------------------------------------------------------------------ *)
(* L2–L5, L8 site markers                                              *)
(* ------------------------------------------------------------------ *)

let marker_findings scope (a : C.analysis) =
  List.filter_map
    (fun (m : C.marker) ->
      match m with
      | M_catchall loc ->
        Some
          (finding ~rule:"L2"
             ~message:
               "catch-all `with _ ->` swallows every exception, including \
                the ones Pool.map_array must re-raise in index order"
             ~suggestion:
               "match the specific exceptions expected here (or waive with \
                a reason at a boundary that must not throw)"
             loc)
      | M_ignore loc ->
        Some
          (finding ~rule:"L2"
             ~message:"`with e -> ignore e` discards the exception"
             ~suggestion:
               "handle or re-raise; if the site really must be silent, \
                waive with a reason"
             loc)
      | M_float_cmp (loc, op) when scope.in_costing ->
        Some
          (finding ~rule:"L3"
             ~message:
               (Printf.sprintf
                  "polymorphic `%s` applied at type float; cost/size \
                   comparisons need an explicit tolerance"
                  op)
             ~suggestion:
               "compare through Cost_bound.float_eq / float_leq / float_lt"
             loc)
      | M_float_inst loc when scope.in_costing ->
        Some
          (finding ~rule:"L3"
             ~message:
               "polymorphic `compare` instantiated at type float; cost/size \
                ordering needs an explicit tolerance"
             ~suggestion:"use Float.compare or a Cost_bound helper" loc)
      | M_intdiv loc when scope.in_intdiv ->
        Some
          (finding ~rule:"L3"
             ~message:
               "int-truncating `/` in page/byte arithmetic; truncation here \
                understates sizes (the bug class behind the leaf_pages fix)"
             ~suggestion:
               "do the arithmetic in float and round explicitly (Float.floor \
                / Float.ceil), as in Size_model"
             loc)
      | M_ambient loc when not scope.in_obs ->
        Some
          (finding ~rule:"L4"
             ~message:
               "direct access to the ambient recorder slot outside lib/obs"
             ~suggestion:
               "instrument through Relax_obs.Probe (Probe.count, Probe.span, \
                Probe.emit); only the obs layer reads the ambient slot"
             loc)
      | M_selfinit loc ->
        Some
          (finding ~rule:"L5"
             ~message:
               "Random.self_init seeds from the environment; results would \
                differ run to run"
             ~suggestion:
               "thread an explicit seed (cf. Search.options.selection Random \
                seed)"
             loc)
      | M_clock (loc, _) ->
        Some
          (finding ~rule:"L5"
             ~message:"wall-clock read outside Relax_obs.Clock"
             ~suggestion:
               "route timing through Relax_obs.Clock (now / elapsed_s); the \
                single sanctioned waiver lives inside that module"
             loc)
      | M_hiter (loc, _) when scope.in_core ->
        Some
          (finding ~rule:"L5"
             ~message:
               "Hashtbl iteration order is unspecified and may feed \
                candidate ordering"
             ~suggestion:
               "iterate over an explicitly sorted key list (or waive with a \
                reason when the result is order-insensitive)"
             loc)
      | M_nested_lock loc when scope.in_lock ->
        Some
          (finding ~rule:"L8"
             ~message:
               "mutex acquired while another lock is already held; \
                out-of-order nested acquisition can deadlock the worker \
                domains"
             ~suggestion:
               "restructure to one lock per critical section, or document \
                and waive the canonical acquisition order"
             loc)
      | M_float_cmp _ | M_float_inst _ | M_intdiv _ | M_ambient _
      | M_hiter _ | M_nested_lock _ ->
        None)
    a.C.a_markers

(* ------------------------------------------------------------------ *)
(* L6: parallel purity of pool task closures                           *)
(* ------------------------------------------------------------------ *)

let l6_forbidden =
  E.Set.of_list
    [ E.Mutates_shared; E.Mutates_args; E.Reads_clock; E.Nondet;
      E.Reads_ambient; E.Io ]

let l6 g (a : C.analysis) =
  List.concat_map
    (fun (site : C.pool_site) ->
      List.filter_map
        (fun id ->
          match E.SMap.find_opt id g.sigs with
          | None -> None
          | Some s ->
            let bad = E.Set.inter s.E.s_flagged l6_forbidden in
            let cap = E.captured s in
            if E.Set.is_empty bad && not cap then None
            else
              let src =
                match E.Set.to_list bad with
                | e :: _ -> `Eff e
                | [] -> `Cap
              in
              let names = E.names bad ~cap in
              Some
                (finding ~rule:"L6"
                   ~message:
                     (Printf.sprintf
                        "closure submitted to the worker pool carries \
                         effects {%s}; pool tasks must stay pure up to \
                         atomics and mutex-guarded state (path: %s)"
                        (String.concat ", " names)
                        (path_string g id src))
                   ~suggestion:
                     "hoist the side effect out of the parallel region, \
                      guard it with the owning structure's mutex, or make the \
                      captured state task-local; waive only with the \
                      protocol that makes the share safe"
                   site.C.ps_loc))
        (g.resolve site.C.ps_target))
    a.C.a_pool_sites

(* ------------------------------------------------------------------ *)
(* L8 (interprocedural): calls under a held lock that acquire again    *)
(* ------------------------------------------------------------------ *)

let l8_nested_calls g (a : C.analysis) =
  List.concat_map
    (fun (n : C.node) ->
      List.concat_map
        (fun (e : C.raw_edge) ->
          if not e.C.re_guarded then []
          else
            List.filter_map
              (fun id ->
                match E.SMap.find_opt id g.sigs with
                | None -> None
                | Some s ->
                  if
                    E.Set.mem E.Acquires_mutex s.E.s_flagged
                    || E.Set.mem E.Acquires_mutex s.E.s_sanctioned
                  then
                    Some
                      (finding ~rule:"L8"
                         ~message:
                           (Printf.sprintf
                              "call to %s while a mutex is held acquires \
                               another mutex (path: %s); nested acquisition \
                               can deadlock the worker domains"
                              id
                              (path_string g id (`Eff E.Acquires_mutex)))
                         ~suggestion:
                           "restructure to one lock per critical section, or \
                            document and waive the canonical acquisition \
                            order"
                         e.C.re_site)
                  else None)
              (g.resolve e.C.re_target))
        n.C.n_edges)
    a.C.a_nodes

(* ------------------------------------------------------------------ *)
(* L7: purity of everything the costing entry points reach             *)
(* ------------------------------------------------------------------ *)

let l7_forbidden =
  E.Set.of_list
    [ E.Mutates_shared; E.Mutates_args; E.Mutates_guarded; E.Acquires_mutex;
      E.Atomic_read; E.Atomic_write; E.Reads_clock; E.Nondet;
      E.Reads_ambient; E.Io ]

let check_costing g ~entry_modules (analyses : C.analysis list) =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  List.iter
    (fun (a : C.analysis) ->
      if List.mem a.C.a_modname entry_modules then
        List.iter
          (fun (n : C.node) ->
            if n.C.n_toplevel then
              match E.SMap.find_opt n.C.n_id g.sigs with
              | None -> ()
              | Some s ->
                let bad = E.Set.inter s.E.s_flagged l7_forbidden in
                let srcs =
                  List.map (fun e -> `Eff e) (E.Set.to_list bad)
                  @ (if E.captured s then [ `Cap ] else [])
                in
                List.iter
                  (fun src ->
                    let w = grounded_witness g n.C.n_id src in
                    let loc =
                      match w with Some w -> w.E.w_loc | None -> n.C.n_loc
                    in
                    let effname =
                      match src with
                      | `Eff e -> E.eff_name e
                      | `Cap -> E.captured_name
                    in
                    let key =
                      Printf.sprintf "%s:%d:%d:%s" loc.E.file loc.E.line
                        loc.E.col effname
                    in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.replace seen key ();
                      out :=
                        finding ~rule:"L7"
                          ~message:
                            (Printf.sprintf
                               "costing entry %s reaches effect %s here \
                                (path: %s); what-if costing must be \
                                referentially transparent"
                               n.C.n_id effname
                               (path_string g n.C.n_id src))
                          ~suggestion:
                            "keep everything reachable from Cost_bound / \
                             Size_model / Access_path pure and \
                             deterministic; thread state through arguments \
                             instead of reading shared or ambient state"
                          loc
                        :: !out
                    end)
                  srcs)
          a.C.a_nodes)
    analyses;
  List.rev !out

(* ------------------------------------------------------------------ *)

let check_module scope g (a : C.analysis) =
  l1 a @ marker_findings scope a @ l6 g a
  @ (if scope.in_lock then l8_nested_calls g a else [])
