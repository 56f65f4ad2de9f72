(** Tests for the interprocedural effect inference itself (lib/lint):
    exact solved signatures for fixture nodes as returned by the engine,
    determinism of the solved signatures across runs, a qcheck property
    that inference is monotone under adding a call edge, and the
    empty-scan exit path of the CLI driver. *)

module Lint = Relax_lint
module E = Lint.Effects

let sigs = lazy (Lazy.force Suite_lint.fixture_result).Lint.Engine.signatures

let effect_names (s : E.signature_) = E.names s.E.s_flagged ~cap:(E.captured s)

let check_sig node ~effects =
  match E.SMap.find_opt node (Lazy.force sigs) with
  | Some s ->
    Alcotest.(check (list string)) (node ^ " effects") effects (effect_names s)
  | None -> Alcotest.failf "no signature for node %s" node

(* the fixture nodes with signatures known by construction *)
let test_signatures () =
  check_sig "Fix_effects.pure_add" ~effects:[];
  check_sig "Fix_effects.one_hop_clock" ~effects:[ "reads-clock" ];
  check_sig "Fix_effects.guarded_bump"
    ~effects:[ "acquires-mutex"; "mutex-guarded-mutation" ];
  (* the List.iter closure mutates [seen], a local of [escape] — the
     closure is flagged, and the capture dissolves back at its owner *)
  check_sig "Fix_effects.escape.<fn#1>" ~effects:[ "mutates-captured-state" ];
  check_sig "Fix_effects.escape" ~effects:[];
  (* the clock read two hops away lands on the pool closure *)
  check_sig "Fix_l6.stamped.<pool#1>" ~effects:[ "reads-clock" ];
  check_sig "Fix_l8.publish_good"
    ~effects:[ "acquires-mutex"; "atomic-write"; "mutex-guarded-mutation" ]

(* two fresh engine runs over the same build tree must solve the very
   same signatures, down to the provenance chain of every effect *)
let test_signatures_stable () =
  let render () =
    let sigs =
      (Lint.Engine.run Suite_lint.fixture_config).Lint.Engine.signatures
    in
    List.map
      (fun (id, (s : E.signature_)) ->
        let chain e =
          let ids, w = E.chain sigs id (`Eff e) in
          let at =
            match w with
            | Some w -> Printf.sprintf " (%s:%d)" w.E.w_loc.file w.E.w_loc.line
            | None -> ""
          in
          String.concat " -> " ids ^ at
        in
        String.concat "; "
          ((id :: effect_names s)
          @ E.names s.E.s_sanctioned ~cap:false
          @ List.map chain (E.Set.to_list s.E.s_flagged)))
      (E.SMap.bindings sigs)
  in
  Alcotest.(check (list string)) "identical signatures" (render ()) (render ())

(* --- qcheck: adding a call edge can only grow signatures -------------- *)

let all_effs =
  [
    E.Mutates_shared; E.Mutates_args; E.Mutates_guarded; E.Acquires_mutex;
    E.Atomic_read; E.Atomic_write; E.Reads_clock; E.Nondet; E.Reads_ambient;
    E.Raises; E.Io;
  ]

let dummy_loc = { E.file = "prop.ml"; line = 1; col = 0 }

(* a random graph: per-node direct effect sets, a random edge list, and
   one extra edge to add *)
let gen_case =
  QCheck.Gen.(
    let gen_edge n =
      let* src = int_bound (n - 1) in
      let* dst = int_bound (n - 1) in
      let* k = int_bound 2 in
      return (src, dst, k)
    in
    let* n = int_range 2 6 in
    let* flagged =
      flatten_l
        (List.init n (fun _ ->
             let* mask = int_bound ((1 lsl List.length all_effs) - 1) in
             return
               (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) all_effs)))
    in
    let* m = int_bound 8 in
    let* edges = flatten_l (List.init m (fun _ -> gen_edge n)) in
    let* extra = gen_edge n in
    return (n, flagged, edges, extra))

let print_case (n, flagged, edges, extra) =
  Printf.sprintf "nodes=%d effs=[%s] edges=[%s] extra=%s" n
    (String.concat ";"
       (List.map (fun l -> string_of_int (List.length l)) flagged))
    (String.concat ";"
       (List.map (fun (s, d, k) -> Printf.sprintf "%d->%d/%d" s d k) edges))
    (let s, d, k = extra in
     Printf.sprintf "%d->%d/%d" s d k)

let prop_monotone =
  QCheck.Test.make ~name:"inference monotone under an added call edge"
    ~count:200
    (QCheck.make ~print:print_case gen_case)
    (fun (n, flagged, edges, extra) ->
      ignore n;
      let name i = Printf.sprintf "n%d" i in
      let nodes =
        List.mapi
          (fun i effs ->
            (name i, { E.direct_empty with E.d_flagged = E.Set.of_list effs }))
          flagged
      in
      let argk_of = function
        | 0 -> E.Arg_none
        | 1 -> E.Arg_args
        | _ -> E.Arg_shared
      in
      let mk (src, dst, k) =
        ( name src,
          {
            E.callee = name dst;
            site = dummy_loc;
            guarded = false;
            argk = argk_of k;
          } )
      in
      let to_map es =
        List.fold_left
          (fun acc (src, e) ->
            let prev =
              match E.SMap.find_opt src acc with Some l -> l | None -> []
            in
            E.SMap.add src (prev @ [ e ]) acc)
          E.SMap.empty es
      in
      let before = E.solve ~nodes ~edges:(to_map (List.map mk edges)) in
      let after =
        E.solve ~nodes ~edges:(to_map (List.map mk (edges @ [ extra ])))
      in
      List.for_all
        (fun (id, _) ->
          let a = E.SMap.find id before and b = E.SMap.find id after in
          E.Set.subset a.E.s_flagged b.E.s_flagged
          && E.Set.subset a.E.s_sanctioned b.E.s_sanctioned
          && E.SSet.subset a.E.s_cap_param b.E.s_cap_param
          && E.SSet.subset a.E.s_cap_local b.E.s_cap_local)
        nodes)

(* --- the CLI's empty-scan exit path ---------------------------------- *)

let test_empty_scan () =
  let lint_exe = Filename.concat Suite_lint.build_root "bin/lint.exe" in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "relax_lint_empty_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let err = Filename.temp_file "relax_lint_scan" ".err" in
  let cmd =
    Printf.sprintf "%s --root %s >/dev/null 2>%s" (Filename.quote lint_exe)
      (Filename.quote dir) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin err in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool)
    "explains the empty scan" true
    (Astring_contains.contains out "no cmt files found");
  Alcotest.(check bool)
    "names every searched root" true
    (Astring_contains.contains out
       (Printf.sprintf "searched build-tree root(s): %s" dir))

let suite =
  [
    Alcotest.test_case "fixture node signatures" `Quick test_signatures;
    Alcotest.test_case "effects dump is deterministic" `Quick
      test_signatures_stable;
    QCheck_alcotest.to_alcotest prop_monotone;
    Alcotest.test_case "empty scan exits 2 with roots" `Quick test_empty_scan;
  ]
