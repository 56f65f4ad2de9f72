(* L8 fixture: a table and atomic update under one lock, which is clean,
   and a nested acquisition. *)

type sh = {
  lock : Mutex.t;
  table : (string, int) Hashtbl.t;
  snapshot : int Atomic.t;
}

let publish_good sh v =
  Mutex.protect sh.lock (fun () ->
      Hashtbl.replace sh.table "k" v;
      Atomic.set sh.snapshot v)

let nested outer inner =
  Mutex.protect outer (fun () -> Mutex.protect inner (fun () -> ()))
