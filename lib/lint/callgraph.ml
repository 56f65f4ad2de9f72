(* One typedtree walk per module: nodes, edges, direct effects, lock
   regions, pool-submission sites and the flow-sensitive rule markers.
   See the interface for the model. *)

module E = Effects

type target = Tnode of string | Tkey of string

type raw_edge = {
  re_target : target;
  re_site : E.loc;
  re_guarded : bool;
  re_argk : E.argk;
}

type node = {
  n_id : string;
  n_loc : E.loc;
  n_toplevel : bool;
  n_direct : E.direct;
  n_edges : raw_edge list;
  n_key : string option;
}

type marker =
  | M_catchall of E.loc
  | M_ignore of E.loc
  | M_float_cmp of E.loc * string
  | M_float_inst of E.loc
  | M_intdiv of E.loc
  | M_ambient of E.loc
  | M_clock of E.loc * string
  | M_selfinit of E.loc
  | M_hiter of E.loc * string
  | M_nested_lock of E.loc

type pool_site = { ps_loc : E.loc; ps_target : target }

type analysis = {
  a_modname : string;
  a_source : string;
  a_nodes : node list;
  a_pool_sites : pool_site list;
  a_mutables : (string * string * E.loc) list;
  a_markers : marker list;
}

let canonical_modname m =
  let n = String.length m in
  let rec go i best =
    if i + 1 >= n then best
    else if m.[i] = '_' && m.[i + 1] = '_' then go (i + 1) (Some (i + 2))
    else go (i + 1) best
  in
  match go 0 None with
  | Some i when i < n -> String.sub m i (n - i)
  | _ -> m

(* ------------------------------------------------------------------ *)
(* path and type helpers (shared with the rule layer via this module)  *)
(* ------------------------------------------------------------------ *)

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let path_is p suffixes =
  let name = Path.name p in
  List.exists
    (fun suffix -> name = suffix || ends_with ~suffix:("." ^ suffix) name)
    suffixes

let head_constr ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some p
  | _ -> None

let is_float ty =
  match head_constr ty with
  | Some p -> Path.same p Predef.path_float
  | None -> false

let is_int ty =
  match head_constr ty with
  | Some p -> Path.same p Predef.path_int
  | None -> false

let arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let mutable_container ty =
  match head_constr ty with
  | None -> None
  | Some p ->
    if Path.same p Predef.path_array then Some "array"
    else if Path.same p Predef.path_bytes then Some "bytes"
    else if path_is p [ "ref" ] then Some "ref"
    else if path_is p [ "Hashtbl.t" ] then Some "Hashtbl.t"
    else if path_is p [ "Buffer.t" ] then Some "Buffer.t"
    else if path_is p [ "Queue.t" ] then Some "Queue.t"
    else if path_is p [ "Stack.t" ] then Some "Stack.t"
    else if path_is p [ "Random.State.t" ] then Some "Random.State.t"
    else None

let synchronized ty =
  match head_constr ty with
  | Some p ->
    path_is p [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t" ]
  | None -> false

(* Types that cannot transport a mutation back to the caller; anything
   else is treated as possibly-mutable when ranking call-site arguments. *)
let rec immutable_ty ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Ttuple ts -> List.for_all immutable_ty ts
  | Types.Tvar _ | Types.Tpoly _ -> true
  | Types.Tconstr (p, args, _) ->
    (Path.same p Predef.path_int || Path.same p Predef.path_float
    || Path.same p Predef.path_bool
    || Path.same p Predef.path_string
    || Path.same p Predef.path_char
    || Path.same p Predef.path_unit
    || Path.same p Predef.path_option
    || Path.same p Predef.path_list
    || Path.same p Predef.path_exn)
    && List.for_all immutable_ty args
  | _ -> false

let possibly_mutable ty = (not (immutable_ty ty)) && not (synchronized ty)

let key_of_path p =
  let n = Path.name p in
  match List.rev (String.split_on_char '.' n) with
  | v :: m :: _ -> m ^ "." ^ v
  | [ v ] -> v
  | [] -> n

let op_name p =
  let n = Path.name p in
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

(* ------------------------------------------------------------------ *)
(* primitive tables                                                    *)
(* ------------------------------------------------------------------ *)

let comparison_ops = [ "Stdlib.="; "Stdlib.=="; "Stdlib.<>"; "Stdlib.!=" ]
let compare_fns = [ "Stdlib.compare"; "compare" ]
let clock_prims = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
let ambient_prims = [ "Recorder.ambient"; "Recorder.current" ]
let hiter_prims = [ "Hashtbl.fold"; "Hashtbl.iter" ]

let raise_prims =
  [
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
  ]

let atomic_read_prims = [ "Atomic.get" ]

let atomic_write_prims =
  [
    "Atomic.set";
    "Atomic.exchange";
    "Atomic.compare_and_set";
    "Atomic.fetch_and_add";
    "Atomic.incr";
    "Atomic.decr";
  ]

let io_prims =
  [
    "Stdlib.print_string";
    "Stdlib.print_endline";
    "Stdlib.print_newline";
    "Stdlib.print_char";
    "Stdlib.print_int";
    "Stdlib.print_float";
    "Stdlib.prerr_string";
    "Stdlib.prerr_endline";
    "Stdlib.prerr_newline";
    "Printf.printf";
    "Printf.eprintf";
    "Printf.fprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.fprintf";
    "Stdlib.output_string";
    "Stdlib.output_char";
    "Stdlib.output_bytes";
    "Stdlib.output_value";
    "Stdlib.open_in";
    "Stdlib.open_in_bin";
    "Stdlib.open_out";
    "Stdlib.open_out_bin";
    "Stdlib.close_in";
    "Stdlib.close_out";
    "Stdlib.input_line";
    "Stdlib.read_line";
    "Stdlib.flush";
    "Stdlib.exit";
    "Sys.command";
    "Sys.remove";
    "Sys.rename";
    "Sys.readdir";
    "Sys.getenv";
    "Sys.getenv_opt";
    "Out_channel.with_open_bin";
    "Out_channel.with_open_text";
    "Out_channel.output_string";
    "Out_channel.output_char";
    "Out_channel.flush";
    "In_channel.with_open_bin";
    "In_channel.with_open_text";
    "In_channel.input_all";
    "Unix.openfile";
    "Unix.read";
    "Unix.write";
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.mkdir";
    "Unix.unlink";
  ]

(* (suffix, index of the mutated argument among explicit arguments) *)
let mutation_prims =
  [
    ("Stdlib.:=", 0);
    ("Stdlib.incr", 0);
    ("Stdlib.decr", 0);
    ("Hashtbl.add", 0);
    ("Hashtbl.replace", 0);
    ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0);
    ("Hashtbl.clear", 0);
    ("Hashtbl.filter_map_inplace", 1);
    ("Array.set", 0);
    ("Array.unsafe_set", 0);
    ("Array.fill", 0);
    ("Array.blit", 2);
    ("Array.sort", 1);
    ("Array.fast_sort", 1);
    ("Array.stable_sort", 1);
    ("Bytes.set", 0);
    ("Bytes.unsafe_set", 0);
    ("Bytes.fill", 0);
    ("Bytes.blit", 2);
    ("Buffer.add_string", 0);
    ("Buffer.add_char", 0);
    ("Buffer.add_bytes", 0);
    ("Buffer.add_substring", 0);
    ("Buffer.add_buffer", 0);
    ("Buffer.clear", 0);
    ("Buffer.reset", 0);
    ("Queue.push", 1);
    ("Queue.add", 1);
    ("Queue.pop", 0);
    ("Queue.take", 0);
    ("Queue.take_opt", 0);
    ("Queue.clear", 0);
    ("Queue.transfer", 0);
    ("Stack.push", 1);
    ("Stack.pop", 0);
    ("Stack.clear", 0);
  ]

let mutation_prim p =
  let n = Path.name p in
  List.find_opt
    (fun (suffix, _) -> n = suffix || ends_with ~suffix:("." ^ suffix) n)
    mutation_prims

(* ------------------------------------------------------------------ *)
(* walk state                                                          *)
(* ------------------------------------------------------------------ *)

type binder_kind =
  | B_param of string
  | B_local of string
  | B_sub of string
  | B_top of string

type acc = {
  ac_id : string;
  ac_loc : E.loc;
  ac_toplevel : bool;
  ac_key : string option;
  mutable ac_direct : E.direct;
  mutable ac_edges : raw_edge list; (* reversed *)
}

type st = {
  st_mod : string; (* canonical *)
  st_src : string;
  binders : (string, binder_kind) Hashtbl.t; (* Ident.unique_name *)
  accs : (string, acc) Hashtbl.t; (* node id -> acc *)
  vb_nodes : (string, acc) Hashtbl.t; (* rendered pattern loc -> acc *)
  counters : (string, int ref) Hashtbl.t;
  mutable order : acc list; (* reversed definition order *)
  mutable pool_sites : pool_site list; (* reversed *)
  mutable mutables : (string * string * E.loc) list; (* reversed *)
  mutable markers : marker list; (* reversed *)
  mutable held : string list; (* lock tokens, innermost first *)
}

let loc_of (l : Location.t) =
  let p = l.loc_start in
  { E.file = p.pos_fname; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol }

let loc_key (l : Location.t) =
  Printf.sprintf "%s:%d:%d:%d" l.loc_start.pos_fname l.loc_start.pos_lnum
    l.loc_start.pos_cnum l.loc_end.pos_cnum

let mark st m = st.markers <- m :: st.markers

let new_acc st ~id ~loc ~toplevel ~key =
  let a =
    {
      ac_id = id;
      ac_loc = loc;
      ac_toplevel = toplevel;
      ac_key = key;
      ac_direct = E.direct_empty;
      ac_edges = [];
    }
  in
  Hashtbl.replace st.accs id a;
  st.order <- a :: st.order;
  a

(* deterministic fresh names: parent scoping plus a per-key counter *)
let counter st key =
  match Hashtbl.find_opt st.counters key with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.replace st.counters key (ref 1);
    1

let fresh_sub st parent kind =
  Printf.sprintf "%s.<%s#%d>" parent kind (counter st (parent ^ "/" ^ kind))

let sub_id st parent name =
  let base = parent ^ "." ^ name in
  if Hashtbl.mem st.accs base then
    Printf.sprintf "%s#%d" base (counter st (base ^ "/shadow") + 1)
  else base

let eff acc ?(detail = "") e loc =
  let d = acc.ac_direct in
  if not (E.Set.mem e d.E.d_flagged) then
    acc.ac_direct <-
      {
        d with
        E.d_flagged = E.Set.add e d.E.d_flagged;
        d_witnesses =
          d.E.d_witnesses @ [ (e, { E.w_eff = e; w_detail = detail; w_loc = loc }) ];
      }

let cap acc which owner ~detail loc =
  let d = acc.ac_direct in
  let present =
    match which with
    | `P -> E.SSet.mem owner d.E.d_cap_param
    | `L -> E.SSet.mem owner d.E.d_cap_local
  in
  if not present then
    acc.ac_direct <-
      {
        d with
        E.d_cap_param =
          (match which with
          | `P -> E.SSet.add owner d.E.d_cap_param
          | `L -> d.E.d_cap_param);
        d_cap_local =
          (match which with
          | `L -> E.SSet.add owner d.E.d_cap_local
          | `P -> d.E.d_cap_local);
        d_cap_witness =
          (match d.E.d_cap_witness with
          | Some _ as w -> w
          | None ->
            Some { E.w_eff = E.Mutates_args; w_detail = detail; w_loc = loc });
      }

let edge st acc target ~site ~argk =
  acc.ac_edges <-
    { re_target = target; re_site = site; re_guarded = st.held <> []; re_argk = argk }
    :: acc.ac_edges

(* ------------------------------------------------------------------ *)
(* identifier and mutation-target classification                       *)
(* ------------------------------------------------------------------ *)

type iclass =
  | I_param of string
  | I_local of string
  | I_sub of string
  | I_top of string
  | I_unknown

let classify st (id : Ident.t) =
  match Hashtbl.find_opt st.binders (Ident.unique_name id) with
  | Some (B_param o) -> I_param o
  | Some (B_local o) -> I_local o
  | Some (B_sub n) -> I_sub n
  | Some (B_top n) -> I_top n
  | None -> I_unknown

let register st id kind = Hashtbl.replace st.binders (Ident.unique_name id) kind

let rec base_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (`Id id)
  | Texp_ident (_, _, _) -> Some `Dot
  | Texp_field (b, _, _) -> base_ident b
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when path_is p [ "Array.get"; "Array.unsafe_get"; "Bytes.get" ] -> (
    match List.filter_map snd args with
    | b :: _ -> base_ident b
    | [] -> None)
  | _ -> None

(* how a mutation of (or through) [e] relates to the node [acc] *)
type mtk =
  | K_shared
  | K_args
  | K_cap_param of string
  | K_cap_local of string
  | K_local
  | K_unknown

let target_kind st acc (e : Typedtree.expression) =
  match base_ident e with
  | Some `Dot -> K_shared
  | Some (`Id id) -> (
    match classify st id with
    | I_param o -> if o = acc.ac_id then K_args else K_cap_param o
    | I_local o -> if o = acc.ac_id then K_local else K_cap_local o
    | I_top _ -> K_shared
    | I_sub _ | I_unknown -> K_unknown)
  | None -> K_unknown

let record_mutation st acc ~detail kind loc =
  if st.held <> [] then begin
    match kind with
    | K_local | K_unknown -> ()
    | _ -> eff acc ~detail E.Mutates_guarded loc
  end
  else
    match kind with
    | K_shared -> eff acc ~detail E.Mutates_shared loc
    | K_args -> eff acc ~detail E.Mutates_args loc
    | K_cap_param o -> cap acc `P o ~detail loc
    | K_cap_local o -> cap acc `L o ~detail loc
    | K_local | K_unknown -> ()

(* worst possibly-mutable identifier among explicit arguments *)
let argk_rank = function
  | E.Arg_none -> 0
  | E.Arg_args -> 1
  | E.Arg_captured_local _ -> 2
  | E.Arg_captured_param _ -> 3
  | E.Arg_shared -> 4

let call_argk st acc (args : Typedtree.expression list) =
  List.fold_left
    (fun worst (a : Typedtree.expression) ->
      let k =
        if not (possibly_mutable a.exp_type) then E.Arg_none
        else
          match target_kind st acc a with
          | K_shared -> E.Arg_shared
          | K_args -> E.Arg_args
          | K_cap_param o -> E.Arg_captured_param o
          | K_cap_local o -> E.Arg_captured_local o
          | K_local | K_unknown -> E.Arg_none
      in
      if argk_rank k > argk_rank worst then k else worst)
    E.Arg_none args

let head_target st p =
  match p with
  | Path.Pident id -> (
    match classify st id with
    | I_sub n | I_top n -> Some (Tnode n)
    | _ -> None)
  | _ -> Some (Tkey (key_of_path p))

(* ------------------------------------------------------------------ *)
(* lock-region bookkeeping                                             *)
(* ------------------------------------------------------------------ *)

let rec lock_token (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Path.name p
  | Texp_field (b, _, ld) -> lock_token b ^ "." ^ ld.lbl_name
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when path_is p [ "Array.get"; "Array.unsafe_get" ] -> (
    match List.filter_map snd args with
    | b :: _ -> lock_token b ^ ".()"
    | [] -> "?")
  | _ -> "?"

let push_lock st tok loc =
  if st.held <> [] then mark st (M_nested_lock loc);
  st.held <- tok :: st.held

let pop_lock st tok =
  if tok <> "?" then begin
    let rec rm = function
      | [] -> []
      | t :: rest -> if t = tok then rest else t :: rm rest
    in
    st.held <- rm st.held
  end

let with_branches st (walks : (unit -> unit) list) =
  let h0 = st.held in
  let exits =
    List.map
      (fun w ->
        st.held <- h0;
        w ();
        st.held)
      walks
  in
  match exits with
  | [] -> st.held <- h0
  | e0 :: rest ->
    st.held <- List.filter (fun t -> List.for_all (List.mem t) rest) e0

let rec target_desc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Path.name p
  | Texp_field (b, _, ld) -> target_desc b ^ "." ^ ld.lbl_name
  | _ -> "<expr>"

(* ------------------------------------------------------------------ *)
(* the walker                                                          *)
(* ------------------------------------------------------------------ *)

let rec walk st acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> walk_bare_ident st acc e p
  | Texp_constant _ -> ()
  | Texp_let (rf, vbs, body) ->
    walk_let st acc rf vbs;
    walk st acc body
  | Texp_function _ ->
    let id = fresh_sub st acc.ac_id "fn" in
    let sub =
      new_acc st ~id ~loc:(loc_of e.exp_loc) ~toplevel:false ~key:None
    in
    edge st acc (Tnode id) ~site:(loc_of e.exp_loc) ~argk:E.Arg_none;
    walk_closure st sub e
  | Texp_apply (head, args) -> walk_apply st acc e head args
  | Texp_match (scrut, cases, _) ->
    walk st acc scrut;
    walk_cases st acc cases
  | Texp_try (body, cases) ->
    walk st acc body;
    List.iter
      (fun (case : Typedtree.value Typedtree.case) ->
        match case.c_lhs.pat_desc with
        | Tpat_any -> mark st (M_catchall (loc_of case.c_lhs.pat_loc))
        | Tpat_var (id, _) -> (
          match case.c_rhs.exp_desc with
          | Texp_apply
              ( { exp_desc = Texp_ident (p, _, _); _ },
                [ (_, Some { exp_desc = Texp_ident (Path.Pident arg, _, _); _ }) ]
              )
            when path_is p [ "ignore" ] && Ident.same id arg ->
            mark st (M_ignore (loc_of case.c_lhs.pat_loc))
          | _ -> ())
        | _ -> ())
      cases;
    walk_cases st acc cases
  | Texp_ifthenelse (c, t, f) ->
    walk st acc c;
    let branches =
      (fun () -> walk st acc t)
      :: (match f with Some f -> [ (fun () -> walk st acc f) ] | None -> [ (fun () -> ()) ])
    in
    with_branches st branches
  | Texp_sequence (a, b) ->
    walk st acc a;
    walk st acc b
  | Texp_while (c, body) ->
    walk st acc c;
    let h0 = st.held in
    walk st acc body;
    st.held <- h0
  | Texp_for (id, _, lo, hi, _, body) ->
    walk st acc lo;
    walk st acc hi;
    register st id (B_local acc.ac_id);
    let h0 = st.held in
    walk st acc body;
    st.held <- h0
  | Texp_tuple es | Texp_array es -> List.iter (walk st acc) es
  | Texp_construct (_, _, es) -> List.iter (walk st acc) es
  | Texp_variant (_, eo) -> Option.iter (walk st acc) eo
  | Texp_record { fields; extended_expression; _ } ->
    Array.iter
      (fun (_, (def : Typedtree.record_label_definition)) ->
        match def with
        | Typedtree.Overridden (_, e) -> walk st acc e
        | Typedtree.Kept _ -> ())
      fields;
    Option.iter (walk st acc) extended_expression
  | Texp_field (b, _, _) -> walk st acc b
  | Texp_setfield (b, _, ld, v) ->
    record_mutation st acc
      ~detail:(target_desc b ^ "." ^ ld.lbl_name ^ " <-")
      (target_kind st acc b) (loc_of e.exp_loc);
    walk st acc b;
    walk st acc v
  | Texp_assert (cond, _) ->
    eff acc ~detail:"assert" E.Raises (loc_of e.exp_loc);
    walk st acc cond
  | Texp_lazy body -> walk st acc body
  | Texp_send (b, _) -> walk st acc b
  | Texp_letmodule (_, _, _, me, body) ->
    walk_local_module st acc me;
    walk st acc body
  | Texp_letexception (_, body) -> walk st acc body
  | Texp_open (_, body) -> walk st acc body
  | Texp_letop { let_; ands; body; _ } ->
    walk st acc let_.bop_exp;
    List.iter (fun (a : Typedtree.binding_op) -> walk st acc a.bop_exp) ands;
    List.iter
      (fun id -> register st id (B_param acc.ac_id))
      (Typedtree.pat_bound_idents body.c_lhs);
    walk st acc body.c_rhs
  | _ -> ()

and walk_cases : 'k. st -> acc -> 'k Typedtree.case list -> unit =
 fun st acc cases ->
  let branches =
    List.map
      (fun (case : _ Typedtree.case) () ->
        List.iter
          (fun id -> register st id (B_local acc.ac_id))
          (Typedtree.pat_bound_idents case.c_lhs);
        Option.iter (walk st acc) case.c_guard;
        walk st acc case.c_rhs)
      cases
  in
  with_branches st branches

(* a lambda body analyzed as its own node: runs later, with no lock held *)
and walk_closure st sub e =
  let h0 = st.held in
  st.held <- [];
  walk_fn_spine st sub e;
  st.held <- h0

and walk_fn_spine st acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter
      (fun (case : Typedtree.value Typedtree.case) ->
        List.iter
          (fun id -> register st id (B_param acc.ac_id))
          (Typedtree.pat_bound_idents case.c_lhs);
        Option.iter (walk st acc) case.c_guard;
        walk_fn_spine st acc case.c_rhs)
      cases
  | _ -> walk st acc e

and walk_let st acc rf vbs =
  let is_lambda (vb : Typedtree.value_binding) =
    match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false
  in
  (match rf with
  | Asttypes.Recursive ->
    (* register everything first so recursive references resolve *)
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, name) when is_lambda vb ->
          let nid = sub_id st acc.ac_id name.txt in
          let _ =
            new_acc st ~id:nid ~loc:(loc_of vb.vb_loc) ~toplevel:false
              ~key:None
          in
          register st id (B_sub nid)
        | _ ->
          List.iter
            (fun id -> register st id (B_local acc.ac_id))
            (Typedtree.pat_bound_idents vb.vb_pat))
      vbs;
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) when is_lambda vb -> (
          match classify st id with
          | I_sub nid -> walk_closure st (Hashtbl.find st.accs nid) vb.vb_expr
          | _ -> ())
        | _ -> walk st acc vb.vb_expr)
      vbs
  | Asttypes.Nonrecursive ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, name) when is_lambda vb ->
          let nid = sub_id st acc.ac_id name.txt in
          let sub =
            new_acc st ~id:nid ~loc:(loc_of vb.vb_loc) ~toplevel:false
              ~key:None
          in
          walk_closure st sub vb.vb_expr;
          register st id (B_sub nid)
        | _ ->
          walk st acc vb.vb_expr;
          List.iter
            (fun id -> register st id (B_local acc.ac_id))
            (Typedtree.pat_bound_idents vb.vb_pat))
      vbs)

(* [let module M = struct ... end in ...]: the bindings execute here *)
and walk_local_module st acc (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure s ->
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (rf, vbs) -> walk_let st acc rf vbs
        | Tstr_eval (e, _) -> walk st acc e
        | _ -> ())
      s.str_items
  | Tmod_constraint (me, _, _, _) -> walk_local_module st acc me
  | _ -> ()

(* -------------------------- applications ------------------------- *)

and walk_apply st acc (e : Typedtree.expression) head args =
  let explicit = List.filter_map snd args in
  match head.exp_desc with
  | Texp_ident (p, _, _) -> dispatch st acc e head p explicit
  | _ ->
    walk st acc head;
    List.iter (walk st acc) explicit

and dispatch st acc (e : Typedtree.expression) head p explicit =
  let apply_loc = loc_of e.exp_loc in
  let head_loc = loc_of head.Typedtree.exp_loc in
  let arg_types = List.map (fun (a : Typedtree.expression) -> a.exp_type) explicit in
  if path_is p [ "Pool.map_array" ] then
    walk_pool_site st acc apply_loc explicit
  else if path_is p [ "Mutex.protect" ] then walk_protect st acc head_loc explicit
  else if path_is p [ "Mutex.lock"; "Mutex.try_lock" ] then begin
    eff acc ~detail:(Path.name p) E.Acquires_mutex head_loc;
    List.iter (walk st acc) explicit;
    match explicit with
    | m :: _ -> push_lock st (lock_token m) head_loc
    | [] -> ()
  end
  else if path_is p [ "Mutex.unlock" ] then begin
    List.iter (walk st acc) explicit;
    match explicit with
    | m :: _ -> pop_lock st (lock_token m)
    | [] -> ()
  end
  else if path_is p [ "Condition.wait"; "Condition.signal"; "Condition.broadcast" ]
  then List.iter (walk st acc) explicit
  else if path_is p atomic_read_prims then begin
    eff acc ~detail:(Path.name p) E.Atomic_read head_loc;
    List.iter (walk st acc) explicit
  end
  else if path_is p atomic_write_prims then begin
    eff acc ~detail:(Path.name p) E.Atomic_write head_loc;
    List.iter (walk st acc) explicit
  end
  else
    match mutation_prim p with
    | Some (suffix, pos) ->
      (match List.nth_opt explicit pos with
      | Some tgt ->
        record_mutation st acc ~detail:suffix (target_kind st acc tgt) head_loc
      | None ->
        (* partial application: the closure will mutate whatever arrives *)
        if st.held = [] then eff acc ~detail:suffix E.Mutates_args head_loc
        else eff acc ~detail:suffix E.Mutates_guarded head_loc);
      List.iter (walk st acc) explicit
    | None ->
      if
        List.exists (fun n -> Path.name p = n) comparison_ops
        || path_is p compare_fns
      then begin
        if List.exists is_float arg_types then
          mark st (M_float_cmp (apply_loc, op_name p));
        List.iter (walk st acc) explicit
      end
      else if Path.name p = "Stdlib./" then begin
        if List.exists is_int arg_types then mark st (M_intdiv apply_loc);
        List.iter (walk st acc) explicit
      end
      else if path_is p clock_prims then begin
        eff acc ~detail:(Path.name p) E.Reads_clock head_loc;
        mark st (M_clock (head_loc, Path.name p));
        List.iter (walk st acc) explicit
      end
      else if path_is p [ "Random.self_init" ] then begin
        eff acc ~detail:(Path.name p) E.Nondet head_loc;
        mark st (M_selfinit head_loc);
        List.iter (walk st acc) explicit
      end
      else if path_is p hiter_prims then begin
        eff acc ~detail:(Path.name p) E.Nondet head_loc;
        mark st (M_hiter (head_loc, Path.name p));
        List.iter (walk st acc) explicit
      end
      else if path_is p ambient_prims then begin
        eff acc ~detail:(Path.name p) E.Reads_ambient head_loc;
        mark st (M_ambient head_loc);
        List.iter (walk st acc) explicit
      end
      else if path_is p raise_prims then begin
        eff acc ~detail:(Path.name p) E.Raises head_loc;
        List.iter (walk st acc) explicit
      end
      else if path_is p io_prims then begin
        eff acc ~detail:(Path.name p) E.Io head_loc;
        List.iter (walk st acc) explicit
      end
      else begin
        (match head_target st p with
        | Some t ->
          edge st acc t ~site:head_loc ~argk:(call_argk st acc explicit)
        | None -> ());
        List.iter (walk st acc) explicit
      end

(* [Mutex.protect m f]: the thunk runs right here with [m] held, so its
   body is analyzed inline, flow-sensitively, instead of as a closure *)
and walk_protect st acc head_loc explicit =
  eff acc ~detail:"Mutex.protect" E.Acquires_mutex head_loc;
  match explicit with
  | m :: rest ->
    walk st acc m;
    let tok = lock_token m in
    push_lock st tok head_loc;
    (match rest with
    | [ ({ Typedtree.exp_desc = Texp_function _; _ } as thunk) ] ->
      walk_fn_spine st acc thunk
    | _ -> List.iter (walk st acc) rest);
    pop_lock st tok
  | [] -> ()

and walk_pool_site st acc site explicit =
  List.iter
    (fun (a : Typedtree.expression) ->
      match arrow_arg a.exp_type with
      | None -> walk st acc a
      | Some _ -> (
        match a.exp_desc with
        | Texp_function _ ->
          let id = fresh_sub st acc.ac_id "pool" in
          let sub =
            new_acc st ~id ~loc:(loc_of a.exp_loc) ~toplevel:false ~key:None
          in
          st.pool_sites <-
            { ps_loc = loc_of a.exp_loc; ps_target = Tnode id } :: st.pool_sites;
          edge st acc (Tnode id) ~site:(loc_of a.exp_loc) ~argk:E.Arg_none;
          walk_closure st sub a
        | Texp_ident (p, _, _) -> (
          walk_bare_ident st acc a p;
          match head_target st p with
          | Some t -> st.pool_sites <- { ps_loc = site; ps_target = t } :: st.pool_sites
          | None -> ())
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
          (* partial application: the task runs the applied function *)
          walk st acc a;
          match head_target st p with
          | Some t -> st.pool_sites <- { ps_loc = site; ps_target = t } :: st.pool_sites
          | None -> ())
        | _ -> walk st acc a))
    explicit

(* ----------------------------- idents ----------------------------- *)

and walk_bare_ident st acc (e : Typedtree.expression) p =
  let loc = loc_of e.exp_loc in
  if path_is p clock_prims then begin
    eff acc ~detail:(Path.name p) E.Reads_clock loc;
    mark st (M_clock (loc, Path.name p))
  end
  else if path_is p [ "Random.self_init" ] then begin
    eff acc ~detail:(Path.name p) E.Nondet loc;
    mark st (M_selfinit loc)
  end
  else if path_is p hiter_prims then begin
    eff acc ~detail:(Path.name p) E.Nondet loc;
    mark st (M_hiter (loc, Path.name p))
  end
  else if path_is p ambient_prims then begin
    eff acc ~detail:(Path.name p) E.Reads_ambient loc;
    mark st (M_ambient loc)
  end
  else if path_is p atomic_read_prims then
    eff acc ~detail:(Path.name p) E.Atomic_read loc
  else if path_is p atomic_write_prims then
    eff acc ~detail:(Path.name p) E.Atomic_write loc
  else if mutation_prim p <> None then
    eff acc ~detail:(Path.name p) E.Mutates_args loc
  else if path_is p raise_prims then eff acc ~detail:(Path.name p) E.Raises loc
  else if path_is p io_prims then eff acc ~detail:(Path.name p) E.Io loc
  else begin
    (if path_is p compare_fns then
       match arrow_arg e.exp_type with
       | Some a when is_float a -> mark st (M_float_inst loc)
       | _ -> ());
    match head_target st p with
    | Some t -> edge st acc t ~site:loc ~argk:E.Arg_none
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* structure traversal: two passes so forward references resolve       *)
(* ------------------------------------------------------------------ *)

let rhs_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> Some p
  | _ -> None

let rec unwrap_module (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> unwrap_module me
  | _ -> None

let rec predeclare st ~prefix ~inner (items : Typedtree.structure_item list) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let id_loc = loc_key vb.vb_pat.pat_loc in
            (match vb.vb_pat.pat_desc with
            | Tpat_var (id, name) ->
              let nid = st.st_mod ^ "." ^ prefix ^ name.txt in
              let a =
                new_acc st ~id:nid ~loc:(loc_of vb.vb_loc) ~toplevel:true
                  ~key:(Some (inner ^ "." ^ name.txt))
              in
              register st id (B_top nid);
              Hashtbl.replace st.vb_nodes id_loc a
            | _ ->
              let nid =
                Printf.sprintf "%s.%s<init#%d>" st.st_mod prefix
                  (counter st (prefix ^ "/init"))
              in
              let a =
                new_acc st ~id:nid ~loc:(loc_of vb.vb_loc) ~toplevel:true
                  ~key:None
              in
              List.iter
                (fun id -> register st id (B_top nid))
                (Typedtree.pat_bound_idents vb.vb_pat);
              Hashtbl.replace st.vb_nodes id_loc a);
            (* L1 candidates: module-level mutable containers *)
            match vb.vb_pat.pat_desc with
            | Tpat_var (_, name) -> (
              let ty = vb.vb_pat.pat_type in
              if not (synchronized ty) then
                match mutable_container ty with
                | None -> ()
                | Some kind ->
                  let allowed =
                    match rhs_head vb.vb_expr with
                    | Some p -> path_is p [ "Atomic.make" ]
                    | None -> false
                  in
                  if not allowed then
                    st.mutables <-
                      (kind, name.txt, loc_of vb.vb_loc) :: st.mutables)
            | _ -> ())
          vbs
      | Tstr_eval (_, _) ->
        let nid =
          Printf.sprintf "%s.%s<init#%d>" st.st_mod prefix
            (counter st (prefix ^ "/init"))
        in
        let a =
          new_acc st ~id:nid ~loc:(loc_of item.str_loc) ~toplevel:true
            ~key:None
        in
        Hashtbl.replace st.vb_nodes (loc_key item.str_loc) a
      | Tstr_module mb -> (
        match (unwrap_module mb.mb_expr, mb.mb_name.txt) with
        | Some s, Some m ->
          predeclare st ~prefix:(prefix ^ m ^ ".") ~inner:m s.str_items
        | _ -> ())
      | _ -> ())
    items

let rec walk_items st ~prefix (items : Typedtree.structure_item list) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match Hashtbl.find_opt st.vb_nodes (loc_key vb.vb_pat.pat_loc) with
            | None -> ()
            | Some a ->
              st.held <- [];
              walk_fn_spine st a vb.vb_expr)
          vbs
      | Tstr_eval (e, _) -> (
        match Hashtbl.find_opt st.vb_nodes (loc_key item.str_loc) with
        | None -> ()
        | Some a ->
          st.held <- [];
          walk st a e)
      | Tstr_module mb -> (
        match (unwrap_module mb.mb_expr, mb.mb_name.txt) with
        | Some s, Some m -> walk_items st ~prefix:(prefix ^ m ^ ".") s.str_items
        | _ -> ())
      | _ -> ())
    items

let analyze ~modname ~source (str : Typedtree.structure) =
  let st =
    {
      st_mod = canonical_modname modname;
      st_src = source;
      binders = Hashtbl.create 256;
      accs = Hashtbl.create 64;
      vb_nodes = Hashtbl.create 64;
      counters = Hashtbl.create 64;
      order = [];
      pool_sites = [];
      mutables = [];
      markers = [];
      held = [];
    }
  in
  predeclare st ~prefix:"" ~inner:st.st_mod str.str_items;
  walk_items st ~prefix:"" str.str_items;
  let nodes =
    List.rev_map
      (fun a ->
        {
          n_id = a.ac_id;
          n_loc = a.ac_loc;
          n_toplevel = a.ac_toplevel;
          n_direct = a.ac_direct;
          n_edges = List.rev a.ac_edges;
          n_key = a.ac_key;
        })
      st.order
  in
  {
    a_modname = st.st_mod;
    a_source = st.st_src;
    a_nodes = nodes;
    a_pool_sites = List.rev st.pool_sites;
    a_mutables = List.rev st.mutables;
    a_markers = List.rev st.markers;
  }
