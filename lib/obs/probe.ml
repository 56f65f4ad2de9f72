(** Ambient-recorder instrumentation points (no-ops when none installed).

    Probes may fire from worker domains (parallel candidate scoring and
    plan re-optimization), so every metrics mutation goes through the
    accumulator's lock. *)

let active () = Recorder.ambient () <> None

let with_metrics f =
  match Recorder.ambient () with
  | None -> ()
  | Some r ->
    let m = Recorder.metrics r in
    Metrics.locked m (fun () -> f m)

let what_if_call ~qid =
  match Recorder.ambient () with
  | None -> ()
  | Some r ->
    let m = Recorder.metrics r in
    Metrics.locked m (fun () -> m.what_if_calls <- m.what_if_calls + 1);
    Recorder.emit r (fun () ->
        Json.Obj [ ("event", String "whatif"); ("qid", String qid) ])

let cache_hit ~qid:_ =
  with_metrics (fun m -> m.cache_hits <- m.cache_hits + 1)

let plan_reoptimized () =
  with_metrics (fun m -> m.plans_reoptimized <- m.plans_reoptimized + 1)

let plan_patched () =
  with_metrics (fun m -> m.plans_patched <- m.plans_patched + 1)

let shortcut_abort () =
  with_metrics (fun m -> m.shortcut_aborts <- m.shortcut_aborts + 1)

let iteration () =
  match Recorder.ambient () with
  | None -> ()
  | Some r ->
    let m = Recorder.metrics r in
    Metrics.locked m (fun () -> m.iterations <- m.iterations + 1);
    (* per-iteration GC counter sample for the Perfetto trace *)
    Recorder.sample_gc r

let config_evaluated () =
  with_metrics (fun m ->
      m.configurations_evaluated <- m.configurations_evaluated + 1)

(* these take the metrics lock themselves *)
let transform_generated ~kind =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Metrics.add_generated (Recorder.metrics r) ~kind

let transform_applied ~kind =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Metrics.add_applied (Recorder.metrics r) ~kind

let pool_size n =
  match Recorder.ambient () with
  | None -> ()
  | Some r ->
    Metrics.record_pool (Recorder.metrics r) n;
    Recorder.counter r "search.pool" (float_of_int n)

let observe name seconds =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Metrics.observe (Recorder.metrics r) name seconds

let counter name value =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Recorder.counter r name value

let thread_name name =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Recorder.thread_name r name

let count_n name n =
  match Recorder.ambient () with
  | None -> ()
  | Some r -> Metrics.count (Recorder.metrics r) name n

let count name = count_n name 1

let span name f =
  match Recorder.ambient () with
  | None -> f ()
  | Some r -> Recorder.with_span r name f

let emit thunk =
  match Recorder.ambient () with None -> () | Some r -> Recorder.emit r thunk
