(** Fixed worker domains over a task queue; see the interface for the
    contract.  The implementation is deliberately dependency-free: one
    mutex, two condition variables, a [Queue.t] of closures.

    A [map_array] call packs each element into a closure writing its slot
    of a results array, enqueues them all, and blocks until a shared
    countdown reaches zero.  Writes of the result slots happen-before the
    caller's reads because both sides go through [lock] (the worker
    decrements the countdown under it, the caller observes zero under
    it), so no further synchronization per slot is needed. *)

module Obs = Relax_obs

(* a queued task remembers when it was enqueued, so workers can report
   queue wait separately from run time *)
type task = { enqueued_at : float; run : unit -> unit }

type t = {
  pool_jobs : int;
  lock : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  queue : task Queue.t;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t array;
  (* lifetime counters, mutated under [lock] (or by the sole caller when
     running sequentially) *)
  mutable n_tasks : int;
  mutable n_batches : int;
  busy : float array;
}

type stats = {
  pool_jobs : int;
  tasks : int;
  batches : int;
  busy_s : float array;
}

(* The 8-way cap is a *default* only: one search rarely profits from
   more domains, so the absent-flag behaviour stays conservative.  An
   explicit request — [RELAX_JOBS] or [create ~jobs] — is always
   respected verbatim; {!create} records an oversubscription warning
   counter instead of silently clamping. *)
let default_jobs () =
  let hw = Int.min 8 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "RELAX_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> hw)
  | None -> hw

let worker t i () =
  (* the ambient recorder was installed before this domain was spawned,
     so the registration lands in the run's Chrome thread-name map *)
  Obs.Probe.thread_name (Printf.sprintf "pool-worker%d" i);
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.shutting_down do
      Condition.wait t.work_available t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* shutting down and drained *)
      Mutex.unlock t.lock;
      ()
    end
    else begin
      let task = Queue.pop t.queue in
      let qlen = Queue.length t.queue in
      Mutex.unlock t.lock;
      Obs.Probe.counter "pool.queue_depth" (float_of_int qlen);
      let t0 = Obs.Clock.now () in
      Obs.Probe.observe "pool.task.wait_s"
        (Float.max 0.0 (t0 -. task.enqueued_at));
      task.run ();
      let dt = Obs.Clock.elapsed_s ~since:t0 in
      Obs.Probe.observe "pool.task.run_s" dt;
      Mutex.lock t.lock;
      t.busy.(i) <- t.busy.(i) +. dt;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  (* an explicit request beyond the hardware is honoured, not clamped —
     but it is worth a warning counter: the extra domains only add
     scheduling noise, and a run's metrics should show why *)
  let hw = Domain.recommended_domain_count () in
  if jobs > hw then begin
    Obs.Probe.count "pool.oversubscribed";
    Obs.Probe.count_n "pool.oversubscribed_by" (jobs - hw)
  end;
  let t =
    {
      pool_jobs = jobs;
      lock = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      domains = [||];
      n_tasks = 0;
      n_batches = 0;
      busy = Array.make (max 1 jobs) 0.0;
    }
  in
  if jobs > 1 then
    t.domains <- Array.init jobs (fun i -> Domain.spawn (worker t i));
  t

let jobs (t : t) = t.pool_jobs

let stats t : stats =
  Mutex.lock t.lock;
  let s =
    {
      pool_jobs = t.pool_jobs;
      tasks = t.n_tasks;
      batches = t.n_batches;
      busy_s = Array.copy t.busy;
    }
  in
  Mutex.unlock t.lock;
  s

(* Re-raise the smallest-index exception so failures are deterministic
   whatever the scheduling. *)
let reraise_first (errors : exn option array) =
  Array.iter (function Some e -> raise e | None -> ()) errors

(* Dispatch [n] slot-writing tasks and block until the countdown drains.
   Writes of the result slots happen-before the caller's reads because
   both sides go through [lock]. *)
let dispatch (type b) t (n : int) (run_slot : int -> b) :
    b option array =
  let results : b option array = Array.make n None in
  let errors : exn option array = Array.make n None in
  let remaining = ref n in
  let task i () =
    (try results.(i) <- Some (run_slot i)
     with e -> errors.(i) <- Some e);
    Mutex.lock t.lock;
    decr remaining;
    if !remaining = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.lock
  in
  let enqueued_at = Obs.Clock.now () in
  Mutex.lock t.lock;
  for i = 0 to n - 1 do
    (* relax-lint: allow L8 the closure is enqueued, not invoked: a worker runs it after this section ends and takes t.lock afresh, so the acquisition never nests *)
    Queue.add { enqueued_at; run = task i } t.queue
  done;
  t.n_tasks <- t.n_tasks + n;
  t.n_batches <- t.n_batches + 1;
  Condition.broadcast t.work_available;
  while !remaining > 0 do
    Condition.wait t.work_done t.lock
  done;
  Mutex.unlock t.lock;
  reraise_first errors;
  results

let map_array (type a b) t (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  if n = 0 then [||]
  else if n = 1 then begin
    t.n_tasks <- t.n_tasks + 1;
    [| f arr.(0) |]
  end
  else if Array.length t.domains = 0 then begin
    t.n_batches <- t.n_batches + 1;
    t.n_tasks <- t.n_tasks + n;
    Array.map f arr
  end
  else begin
    let results = dispatch t n (fun i -> f arr.(i)) in
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* no exception and no result is impossible *))
      results
  end

let shutdown t =
  if Array.length t.domains > 0 then begin
    Mutex.lock t.lock;
    t.shutting_down <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end
