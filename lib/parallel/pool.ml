(** The caller plus [jobs - 1] worker domains, draining each batch from
    one shared slot counter; see the interface for the contract.  The
    implementation is deliberately dependency-free: one mutex, two
    condition variables and an [Atomic] counter per batch.

    A [map_array] call of two or more tasks publishes a batch under
    [lock], wakes the workers and drains the batch itself: every
    participant claims the next slot index with [Atomic.fetch_and_add]
    until none is left, then reports the slots it ran, its busy time and
    its first failure once, under [lock].  The caller waits under [lock]
    until every slot is reported, so the result writes of every
    participant happen-before the caller's reads. *)

module Obs = Relax_obs

(* One parallel [map_array] call.  [run_slot i] computes slot [i] into
   the caller's results array (the closure hides the result type).
   [completed] and [first_error] are guarded by the pool's lock. *)
type batch = {
  size : int;
  run_slot : int -> unit;
  next : int Atomic.t;  (** the next unclaimed slot *)
  published_at : float;
  mutable completed : int;
  mutable first_error : (int * exn) option;
}

type t = {
  pool_jobs : int;
  lock : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  (* the batch being drained, if any, and how many have been published:
     a worker drains a batch at most once *)
  mutable current : batch option;
  mutable generation : int;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t array;
  (* lifetime counters, mutated under [lock] *)
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

(* Run [f x], observing its wait since [published_at] and its run time
   (the [pool.task.*] histograms) and adding the run time to
   [busy.(0)].  The caller's inline path and every batch participant
   share it, so no run mode is a blind spot. *)
let timed ~published_at (busy : float array) f x =
  let t0 = Obs.Clock.now () in
  Obs.Probe.observe "pool.task.wait_s" (Float.max 0.0 (t0 -. published_at));
  let r = f x in
  let dt = Obs.Clock.elapsed_s ~since:t0 in
  Obs.Probe.observe "pool.task.run_s" dt;
  busy.(0) <- busy.(0) +. dt;
  r

(* Every task without workers, and every single-task map, runs in the
   caller through [Array.map]: it allocates no per-slot option, and its
   first exception is the smallest index's. *)
let inline t f arr =
  let n = Array.length arr in
  let published_at = Obs.Clock.now () in
  let busy = [| 0.0 |] in
  let report () =
    Mutex.lock t.lock;
    t.n_tasks <- t.n_tasks + n;
    if n > 1 then t.n_batches <- t.n_batches + 1;
    t.busy.(0) <- t.busy.(0) +. busy.(0);
    Mutex.unlock t.lock
  in
  match Array.map (fun x -> timed ~published_at busy f x) arr with
  | r ->
    report ();
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    report ();
    Printexc.raise_with_backtrace e bt

(* Claim and run slots of [b] until none is left.  Slots are claimed in
   increasing order, so a participant's first failure is its smallest.
   Returns how many slots it ran, its busy time and that failure. *)
let drain b =
  let busy = [| 0.0 |] in
  let ran = ref 0 in
  let error = ref None in
  let i = ref (Atomic.fetch_and_add b.next 1) in
  while !i < b.size do
    Obs.Probe.counter "pool.queue_depth" (float_of_int (b.size - !i - 1));
    (try timed ~published_at:b.published_at busy b.run_slot !i
     with e -> if Option.is_none !error then error := Some (!i, e));
    incr ran;
    i := Atomic.fetch_and_add b.next 1
  done;
  (!ran, busy.(0), !error)

(* Report what participant [i] drained of [b], under [lock]; the report
   that completes the batch wakes the caller. *)
let report_locked t b i (ran, busy, error) =
  t.busy.(i) <- t.busy.(i) +. busy;
  b.completed <- b.completed + ran;
  (match (error, b.first_error) with
  | Some (k, _), Some (k0, _) when k >= k0 -> ()
  | Some _, _ -> b.first_error <- error
  | None, _ -> ());
  if b.completed = b.size then Condition.signal t.batch_done

let worker t i () =
  (* the ambient recorder was installed before this domain was spawned,
     so the registration lands in the run's Chrome thread-name map *)
  Obs.Probe.thread_name (Printf.sprintf "pool-worker%d" i);
  let rec loop seen =
    Mutex.lock t.lock;
    while t.generation = seen && not t.shutting_down do
      Condition.wait t.work_available t.lock
    done;
    let generation = t.generation in
    let batch = t.current in
    let stop = t.shutting_down in
    Mutex.unlock t.lock;
    if not stop then begin
      (* a worker that wakes after the batch was drained finds no slot
         left and touches nothing shared *)
      Option.iter
        (fun b ->
          let ((ran, _, _) as mine) = drain b in
          if ran > 0 then begin
            Mutex.lock t.lock;
            report_locked t b i mine;
            Mutex.unlock t.lock
          end)
        batch;
      loop generation
    end
  in
  loop 0

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
      batch_done = Condition.create ();
      current = None;
      generation = 0;
      shutting_down = false;
      workers = [||];
      n_tasks = 0;
      n_batches = 0;
      busy = Array.make jobs 0.0;
    }
  in
  (* the caller is participant 0 *)
  t.workers <- Array.init (jobs - 1) (fun k -> Domain.spawn (worker t (k + 1)));
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

let map_array (type a b) t (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  if n = 0 then [||]
  else if n = 1 || Array.length t.workers = 0 then inline t f arr
  else begin
    let results : b option array = Array.make n None in
    let b =
      {
        size = n;
        run_slot = (fun i -> results.(i) <- Some (f arr.(i)));
        next = Atomic.make 0;
        published_at = Obs.Clock.now ();
        completed = 0;
        first_error = None;
      }
    in
    Mutex.lock t.lock;
    t.current <- Some b;
    t.generation <- t.generation + 1;
    t.n_tasks <- t.n_tasks + n;
    t.n_batches <- t.n_batches + 1;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    let mine = drain b in
    Mutex.lock t.lock;
    report_locked t b 0 mine;
    while b.completed < n do
      Condition.wait t.batch_done t.lock
    done;
    t.current <- None;
    Mutex.unlock t.lock;
    (* the smallest-index exception, after the whole batch has drained *)
    Option.iter (fun (_, e) -> raise e) b.first_error;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* no exception and no result is impossible *))
      results
  end

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.lock;
    t.shutting_down <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
