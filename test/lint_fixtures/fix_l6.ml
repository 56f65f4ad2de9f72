(* L6 fixture: task closures that smuggle effects into the worker
   pool — a captured local mutable, and a wall-clock read reached
   through two call hops in another module. *)

let total pool xs =
  let acc = ref 0 in
  let sums =
    Relax_parallel.Pool.map_array pool (fun x -> acc := !acc + x; x) xs
  in
  ignore sums;
  !acc

let stamped pool xs =
  Relax_parallel.Pool.map_array pool
    (fun x -> float_of_int x +. Fix_hop.tick ())
    xs
