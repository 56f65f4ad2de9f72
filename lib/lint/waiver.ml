type t = (int * string list) list
(** (line, waived rule ids), one entry per waiver comment *)

let empty = []
let marker = "relax-lint: allow "

(* rule ids after the marker, up to the first token that is not of the
   shape L<digits> (comma-separated lists allowed) *)
let parse_rules rest =
  let rest =
    match String.index_opt rest '*' with
    | Some i when i > 0 && rest.[i - 1] = ' ' -> String.sub rest 0 (i - 1)
    | _ -> rest
  in
  let tokens =
    String.split_on_char ' ' rest
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun s -> s <> "")
  in
  let is_rule s =
    String.length s >= 2
    && s.[0] = 'L'
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (String.sub s 1 (String.length s - 1))
  in
  let rec take = function
    | s :: tl when is_rule s -> s :: take tl
    | _ -> []
  in
  take tokens

let find_marker line =
  let n = String.length line and m = String.length marker in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else go (i + 1)
  in
  go 0

let load path =
  match open_in path with
  | exception Sys_error _ -> empty
  | ic ->
    let waivers = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         match find_marker line with
         | None -> ()
         | Some i -> (
           let rest = String.sub line i (String.length line - i) in
           match parse_rules rest with
           | [] -> ()
           | rules -> waivers := (!lineno, rules) :: !waivers)
       done
     with End_of_file -> ());
    close_in ic;
    !waivers

let covers t ~rule ~line =
  List.exists
    (fun (l, rules) -> (l = line || l = line - 1) && List.mem rule rules)
    t

let entries t =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) t
