(* L1 fixture: module-level mutable state read from a worker-pool task
   closure.  L1 flags the table whatever the module; the closure only
   reads it, so L6 stays silent here. *)

let cache = Hashtbl.create 16

let lookup_all pool keys =
  Relax_parallel.Pool.map_array pool
    (fun (k : string) -> Option.value ~default:0 (Hashtbl.find_opt cache k))
    keys
