(* Effect-inference fixture: nodes whose solved signatures the
   [suite_effects] signature assertions pin down exactly. *)

let pure_add a b = a + b

let one_hop_clock () = Fix_hop.tick ()

let guarded_bump lock counter = Mutex.protect lock (fun () -> incr counter)

let escape xs =
  let seen = ref 0 in
  List.iter (fun x -> seen := !seen + x) xs;
  !seen
