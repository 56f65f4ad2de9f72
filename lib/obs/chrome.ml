(** Chrome trace-event JSON export (Perfetto-compatible).

    Converts a profiling recorder's retained span tree and counter log
    into the trace-event format that https://ui.perfetto.dev (and
    chrome://tracing) load directly: one "X" (complete) event per span
    on its domain's thread track, "M" metadata events naming the process
    and threads, and "C" (counter) events for every sampled track —
    what-if calls, cache hits and latency, frontier and pool sizes,
    queue depth and GC heap words.

    Timestamps are microseconds relative to the recorder's creation, so
    traces start at t=0; thread ids are small integers assigned per
    domain in order of first span, with registered names (main loop
    first, which also runs its share of every pool batch, then
    [pool-worker1] to [pool-worker(jobs-1)]) on the thread tracks. *)

let us ~base t = (t -. base) *. 1e6

let of_recorder r : Json.t =
  let base = Recorder.created_at r in
  let spans = Recorder.profile_spans r in
  let counters = Recorder.counters_log r in
  let names = Recorder.thread_names r in
  (* domain id -> tid, in order of first span appearance (sid order), so
     the creating domain's track comes first *)
  let tids = Hashtbl.create 8 in
  List.iter
    (fun (s : Span_tree.span) ->
      if not (Hashtbl.mem tids s.domain) then
        Hashtbl.add tids s.domain (Hashtbl.length tids))
    spans;
  let tid_of domain =
    match Hashtbl.find_opt tids domain with Some t -> t | None -> 0
  in
  let open Json in
  let meta =
    Obj
      [
        ("name", String "process_name");
        ("ph", String "M");
        ("pid", Int 1);
        ("tid", Int 0);
        ("args", Obj [ ("name", String "relax") ]);
      ]
    :: (Hashtbl.fold (fun domain tid acc -> (domain, tid) :: acc) tids []
       |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
       |> List.map (fun (domain, tid) ->
              let name =
                match List.assoc_opt domain names with
                | Some n -> n
                | None -> if tid = 0 then "main" else Printf.sprintf "domain-%d" domain
              in
              Obj
                [
                  ("name", String "thread_name");
                  ("ph", String "M");
                  ("pid", Int 1);
                  ("tid", Int tid);
                  ("args", Obj [ ("name", String name) ]);
                ]))
  in
  let span_events =
    List.map
      (fun (s : Span_tree.span) ->
        ( us ~base s.t0,
          Obj
            [
              ("name", String s.name);
              ("cat", String "span");
              ("ph", String "X");
              ("pid", Int 1);
              ("tid", Int (tid_of s.domain));
              ("ts", Float (us ~base s.t0));
              ("dur", Float (Float.max 0.0 (s.dur_s *. 1e6)));
              ( "args",
                Obj
                  ([ ("sid", Int s.sid); ("depth", Int s.depth) ]
                  @
                  match s.parent with
                  | None -> []
                  | Some p -> [ ("parent", Int p) ]) );
            ] ))
      spans
  in
  let counter_events =
    List.map
      (fun (ts, track, samples) ->
        ( us ~base ts,
          Obj
            [
              ("name", String track);
              ("cat", String "counter");
              ("ph", String "C");
              ("pid", Int 1);
              ("tid", Int 0);
              ("ts", Float (us ~base ts));
              ("args", Obj (List.map (fun (k, v) -> (k, Float v)) samples));
            ] ))
      counters
  in
  let timed =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (span_events @ counter_events)
    |> List.map snd
  in
  Obj
    [
      ("traceEvents", List (meta @ timed));
      ("displayTimeUnit", String "ms");
    ]

let write r path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (of_recorder r));
      Out_channel.output_char oc '\n')
