type modul = {
  modname : string;
  source : string option;
  structure : Typedtree.structure option;
}

let rec cmt_files acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then cmt_files acc path
        else if Filename.check_suffix entry ".cmt" then path :: acc
        else acc)
      acc entries

let load path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt ->
    let structure =
      match cmt.cmt_annots with
      | Cmt_format.Implementation str -> Some str
      | _ -> None
    in
    Some
      {
        modname = cmt.cmt_modname;
        source = cmt.cmt_sourcefile;
        structure;
      }

let scan ~root =
  cmt_files [] root
  |> List.filter_map load
  |> List.sort (fun a b -> String.compare a.modname b.modname)
