(** Loading typed modules from dune's [.cmt] files.

    The driver runs inside the build tree (an action of the [@lint]
    alias), where dune has already produced a [.cmt] per module under
    [<dir>/.<lib>.objs/byte/].  Reading those back gives the full
    {!Typedtree} with types resolved — no re-typechecking, no load-path
    setup. *)

type modul = {
  modname : string;  (** compiled module name, e.g. [Relax_tuner__Search] *)
  source : string option;
      (** source path as recorded by the compiler, workspace-relative
          (e.g. [lib/core/search.ml]); [None] for generated modules *)
  structure : Typedtree.structure option;
      (** the implementation; [None] for interface-only or packed cmts *)
}

val scan : root:string -> modul list
(** Recursively collect every readable [*.cmt] under [root], sorted by
    module name.  Unreadable or wrong-version files are skipped. *)
