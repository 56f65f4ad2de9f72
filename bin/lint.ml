(** relax-lint driver: run the interprocedural effect analysis and the
    L1–L8 rules over the cmt files of a build tree (normally [lib/], via
    the [@lint] dune alias).

    Exit status is non-zero when any unwaived finding remains, so
    [dune build @lint] doubles as the CI gate.  Findings are printed as
    human-readable lines and, with [--sarif], written as SARIF 2.1.0
    (waived findings included, marked suppressed) for the CI artifact
    and GitHub code scanning. *)

let () =
  let root = ref "lib" in
  let sarif = ref "" in
  let quiet = ref false in
  let args =
    [
      ("--root", Arg.Set_string root, "DIR directory scanned for .cmt files (default: lib)");
      ("--sarif", Arg.Set_string sarif, "FILE write findings as SARIF 2.1.0");
      ("--quiet", Arg.Set quiet, " suppress the per-finding text output");
    ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lint [--root DIR] [--sarif FILE] [--quiet]";
  (* The cmt files live in the build tree.  Under the [@lint] alias the
     action already runs from [_build/default], so [--root lib] is right
     as given; under [dune exec] from the workspace root it is not, so
     fall back to the build tree this very binary was built in. *)
  let run ~root ~src_root =
    Relax_lint.Engine.run { (Relax_lint.Engine.default ~root) with src_root }
  in
  let attempted = ref [ !root ] in
  let result =
    let r = run ~root:!root ~src_root:"." in
    if r.modules_checked > 0 || not (Filename.is_relative !root) then r
    else begin
      let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
      let fallback = Filename.concat build_root !root in
      attempted := !attempted @ [ fallback ];
      run ~root:fallback ~src_root:build_root
    end
  in
  if result.modules_checked = 0 then begin
    (* empty scan is its own exit code (2, not the findings exit 1 and
       not "clean" 0) and names every root searched, so an invocation
       order that runs lint before the library build is diagnosable *)
    Fmt.epr
      "relax-lint: no cmt files found; searched build-tree root(s): %s — \
       build first (dune build) or point --root at a build tree@."
      (String.concat ", " !attempted);
    exit 2
  end;
  let module F = Relax_lint.Finding in
  if not !quiet then
    List.iter (fun f -> Fmt.pr "%a@." F.pp f) result.findings;
  if !sarif <> "" then
    Relax_lint.Sarif.write ~path:!sarif ~findings:result.findings
      ~waived:result.waived;
  Fmt.pr "relax-lint: %d module(s), %d finding(s), %d waived@."
    result.modules_checked
    (List.length result.findings)
    (List.length result.waived);
  if result.findings <> [] then exit 1
