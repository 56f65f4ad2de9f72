module E = Effects
module C = Callgraph

type config = {
  root : string;
  src_root : string;
  obs_dirs : string list;
  costing_dirs : string list;
  intdiv_dirs : string list;
  core_dirs : string list;
  lock_dirs : string list;
  costing_entry_modules : string list;
}

let default ~root =
  {
    root;
    src_root = ".";
    obs_dirs = [ "lib/obs" ];
    costing_dirs = [ "lib/core"; "lib/physical"; "lib/check" ];
    intdiv_dirs = [ "lib/physical" ];
    core_dirs = [ "lib/core" ];
    lock_dirs = [ "lib/optimizer"; "lib/parallel" ];
    costing_entry_modules = [ "Cost_bound"; "Size_model"; "Access_path" ];
  }

type result = {
  findings : Finding.t list;
  waived : Finding.t list;
  modules_checked : int;
  signatures : E.signature_ E.SMap.t;
}

let contains ~fragment s =
  let lf = String.length fragment and ls = String.length s in
  let rec go i =
    if i + lf > ls then false
    else String.sub s i lf = fragment || go (i + 1)
  in
  go 0

let in_dirs dirs source = List.exists (fun d -> contains ~fragment:d source) dirs

(* ------------------------------------------------------------------ *)
(* graph assembly                                                      *)
(* ------------------------------------------------------------------ *)

(* effects originating in the sanctioned observability layer move to
   the sanctioned side before the fixpoint runs *)
let sanctify (n : C.node) =
  let d = n.C.n_direct in
  {
    n with
    C.n_direct =
      {
        E.direct_empty with
        E.d_sanctioned = E.Set.union d.E.d_flagged d.E.d_sanctioned;
      };
  }

let build_graph (analyses : C.analysis list) =
  let node_by_id = Hashtbl.create 512 in
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (a : C.analysis) ->
      List.iter
        (fun (n : C.node) ->
          Hashtbl.replace node_by_id n.C.n_id n;
          match n.C.n_key with
          | None -> ()
          | Some k ->
            let prev =
              match Hashtbl.find_opt by_key k with Some l -> l | None -> []
            in
            Hashtbl.replace by_key k (n.C.n_id :: prev))
        a.C.a_nodes)
    analyses;
  Hashtbl.iter
    (fun k ids -> Hashtbl.replace by_key k (List.sort String.compare ids))
    (Hashtbl.copy by_key);
  let resolve = function
    | C.Tnode id -> [ id ]
    | C.Tkey k -> ( match Hashtbl.find_opt by_key k with Some l -> l | None -> [])
  in
  let nodes =
    List.concat_map
      (fun (a : C.analysis) ->
        List.map (fun (n : C.node) -> (n.C.n_id, n.C.n_direct)) a.C.a_nodes)
      analyses
  in
  let edges =
    List.fold_left
      (fun acc (a : C.analysis) ->
        List.fold_left
          (fun acc (n : C.node) ->
            let es =
              List.concat_map
                (fun (e : C.raw_edge) ->
                  List.map
                    (fun callee ->
                      {
                        E.callee;
                        site = e.C.re_site;
                        guarded = e.C.re_guarded;
                        argk = e.C.re_argk;
                      })
                    (resolve e.C.re_target))
                n.C.n_edges
            in
            if es = [] then acc else E.SMap.add n.C.n_id es acc)
          acc a.C.a_nodes)
      E.SMap.empty analyses
  in
  let sigs = E.solve ~nodes ~edges in
  { Rules.sigs; node_by_id; resolve }

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run config =
  let analyses =
    List.filter_map
      (fun (m : Cmt_load.modul) ->
        match (m.structure, m.source) with
        | Some str, Some source ->
          let a = C.analyze ~modname:m.modname ~source str in
          if in_dirs config.obs_dirs source then
            Some { a with C.a_nodes = List.map sanctify a.C.a_nodes }
          else Some a
        | _ -> None)
      (Cmt_load.scan ~root:config.root)
  in
  let graph = build_graph analyses in
  let all_found =
    ref
      (List.map
         (fun (a : C.analysis) ->
           let source = a.C.a_source in
           let scope =
             {
               Rules.in_obs = in_dirs config.obs_dirs source;
               in_costing = in_dirs config.costing_dirs source;
               in_intdiv = in_dirs config.intdiv_dirs source;
               in_core = in_dirs config.core_dirs source;
               in_lock = in_dirs config.lock_dirs source;
             }
           in
           Rules.check_module scope graph a)
         analyses)
  in
  all_found :=
    Rules.check_costing graph ~entry_modules:config.costing_entry_modules
      analyses
    :: !all_found;
  (* waivers are keyed by the file a finding lands in (an L7 finding can
     ground in another module), so load them per file, lazily *)
  let waiver_cache = Hashtbl.create 64 in
  let waivers_for file =
    match Hashtbl.find_opt waiver_cache file with
    | Some w -> w
    | None ->
      let w = Waiver.load (Filename.concat config.src_root file) in
      Hashtbl.replace waiver_cache file w;
      w
  in
  let findings = ref [] and waived = ref [] in
  List.iter
    (fun (f : Finding.t) ->
      if Waiver.covers (waivers_for f.file) ~rule:f.rule ~line:f.line then
        waived := f :: !waived
      else findings := f :: !findings)
    (List.concat !all_found);
  (* W0: waiver comments that suppressed nothing in this run *)
  List.iter
    (fun (a : C.analysis) ->
      let w = waivers_for a.C.a_source in
      List.iter
        (fun (line, rules) ->
          let used =
            List.exists
              (fun (f : Finding.t) ->
                f.file = a.C.a_source
                && (f.line = line || f.line = line + 1)
                && List.mem f.rule rules)
              !waived
          in
          if not used then
            findings :=
              Finding.make ~rule:"W0" ~file:a.C.a_source ~line ~col:0
                ~message:
                  (Printf.sprintf
                     "stale waiver: `relax-lint: allow %s` suppresses no \
                      finding"
                     (String.concat "," rules))
                ~suggestion:
                  "delete the waiver (the code it excused is gone) or fix \
                   its rule list; stale waivers hide real future findings"
              :: !findings)
        (Waiver.entries w))
    analyses;
  {
    findings = List.sort_uniq Finding.compare !findings;
    waived = List.sort Finding.compare !waived;
    modules_checked = List.length analyses;
    signatures = graph.Rules.sigs;
  }
