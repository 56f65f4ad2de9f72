(* L1 fixture: module-level mutable state in a module that submits task
   closures to the worker pool (the Pool.map_array reference below seeds the
   reachability closure with this very module). *)

let cache = Hashtbl.create 16

let lookup_all pool keys =
  Relax_parallel.Pool.map_array pool
    (fun (k : string) -> Option.value ~default:0 (Hashtbl.find_opt cache k))
    keys
