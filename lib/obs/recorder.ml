(** The per-run observability context and its ambient installation.

    Worker domains report into the same recorder as the main search loop
    (spans around what-if optimizations, trace events for executed
    what-if calls), so span bookkeeping lives in a {!Span_tree} with its
    own lock, sink emission behind [emit_lock], and counter/thread-name
    profiling state behind [aux_lock]; the ambient slot is an [Atomic.t]
    so a recorder installed before a parallel region is visible to the
    worker domains it spawns.

    Profiling mode ([create ~profile:true]) additionally retains every
    completed span (id, parent id, timestamps, domain) and a log of
    counter samples — what the Chrome trace-event export consumes.
    Non-profiling runs only pay for the per-name aggregates and latency
    histograms. *)

type t = {
  metrics : Metrics.t;
  sink : Trace.sink option;
  emit_lock : Mutex.t;  (** serializes trace-line emission *)
  tree : Span_tree.t;
  profile : bool;
  created_at : float;
  aux_lock : Mutex.t;  (** guards the three profiling fields below *)
  mutable counters_log : (float * string * (string * float) list) list;
      (** (timestamp, track, series samples), newest first *)
  names : (int, string) Hashtbl.t;  (** domain id -> thread name *)
  mutable gc_last : Gc.stat;  (** previous {!Gc.quick_stat}, for deltas *)
}

let create ?sink ?(profile = false) () =
  {
    metrics = Metrics.create ();
    sink;
    emit_lock = Mutex.create ();
    tree = Span_tree.create ~retain:profile ();
    profile;
    created_at = Clock.now ();
    aux_lock = Mutex.create ();
    counters_log = [];
    names = Hashtbl.create 8;
    gc_last = Gc.quick_stat ();
  }

let metrics t = t.metrics
let profiling t = t.profile
let created_at t = t.created_at

let emit t thunk =
  match t.sink with
  | Some s ->
    let json = thunk () in
    Mutex.protect t.emit_lock (fun () -> Trace.emit s json)
  | None -> ()

let counter_sample t name samples =
  if t.profile then begin
    let ts = Clock.now () in
    Mutex.protect t.aux_lock (fun () ->
        t.counters_log <- (ts, name, samples) :: t.counters_log)
  end

let counter t name value = counter_sample t name [ ("value", value) ]

(* Counter tracks from [Gc.quick_stat] deltas: the absolute heap size,
   the words allocated since the previous sample, and the cumulative
   major-collection count.  Sampled at span boundaries and once per
   search iteration (see {!Probe.iteration}). *)
let sample_gc t =
  if t.profile then begin
    let s = Gc.quick_stat () in
    let ts = Clock.now () in
    Mutex.protect t.aux_lock (fun () ->
        let last = t.gc_last in
        t.gc_last <- s;
        let alloc =
          Float.max 0.0
            (s.minor_words -. last.minor_words
            +. (s.major_words -. last.major_words))
        in
        t.counters_log <-
          (ts, "gc.heap_words", [ ("value", float_of_int s.heap_words) ])
          :: (ts, "gc.alloc_words", [ ("value", alloc) ])
          :: ( ts,
               "gc.major_collections",
               [ ("value", float_of_int s.major_collections) ] )
          :: t.counters_log)
  end

let thread_name t name =
  Mutex.protect t.aux_lock (fun () ->
      Hashtbl.replace t.names ((Domain.self () :> int)) name)

let with_span t name f =
  let frame = Span_tree.enter t.tree name in
  Fun.protect
    ~finally:(fun () ->
      let dt = Span_tree.exit t.tree frame in
      Metrics.observe t.metrics name dt;
      if t.profile then begin
        counter t ("latency." ^ name ^ "_us") (dt *. 1e6);
        sample_gc t
      end)
    f

let span_stats t : Metrics.span_stat list = Span_tree.aggregates t.tree
let snapshot t = Metrics.snapshot t.metrics ~spans:(span_stats t)

let profile_spans t = Span_tree.spans t.tree

let counters_log t =
  List.rev (Mutex.protect t.aux_lock (fun () -> t.counters_log))

let thread_names t =
  Mutex.protect t.aux_lock (fun () ->
      Hashtbl.fold (fun d n acc -> (d, n) :: acc) t.names [])
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let current : t option Atomic.t = Atomic.make None
let ambient () = Atomic.get current

let inherit_or_create ?sink ?profile () =
  match ambient () with Some r -> r | None -> create ?sink ?profile ()

let with_ambient t f =
  let old = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current old) f
