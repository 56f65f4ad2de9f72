(* The benchmark runner.  From the root of the repository:

     dune exec benchmark/run.exe -- --workload relax-long --seed 0 --seconds 10
     dune exec benchmark/run.exe -- --workload relax-long --trace 1
     dune exec benchmark/run.exe            (every workload, one child each)

   Prints each metric by name with its unit, then, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1
   when an output check fails. *)

open Relax_benchmark
module Json = Relax_obs.Json

let baseline_file = Filename.concat "benchmark" "baseline.json"

(* The stored deterministic outputs of [workload] at [seed], if any. *)
let reference ~workload ~seed =
  match In_channel.with_open_bin baseline_file In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Json.of_string text with
    | Error _ -> None
    | Ok j ->
      Option.bind (Json.member "references" j) (fun refs ->
          Option.bind (Json.member workload refs) (Json.member (string_of_int seed))))

let report_reference (r : Bench.result) =
  Option.iter
    (fun o ->
      Printf.printf "outcome: %s\n" (Bench.pp_outcome o);
      match reference ~workload:r.workload ~seed:r.seed with
      | None -> Printf.printf "reference: none stored for seed %d\n" r.seed
      | Some ref_ ->
        let str k = Option.bind (Json.member k ref_) Json.to_string_opt in
        let num k = Option.bind (Json.member k ref_) Json.to_float in
        let same =
          str "fingerprint_md5" = Some o.Bench.fingerprint
          && num "what_if_calls" = Some (float_of_int o.what_if_calls)
          && num "cost_pct" = Some o.cost_pct
        in
        Printf.printf "reference (seed %d): %s\n" r.seed
          (if same then "identical" else "DIFFERS from " ^ Json.to_string ref_))
    r.outcome

let print_result (r : Bench.result) =
  Printf.printf "workload %s  seed %d  %s\n" r.workload r.seed
    (if r.traced then "traced" else "untraced");
  List.iter print_endline r.notes;
  List.iter (Printf.printf "check failed: %s\n") r.errors;
  report_reference r;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-38s %14.6g %s\n" name v unit)
    r.metrics;
  Printf.printf "operations: %d attempted, %d failed; outputs %s\n" r.attempted
    r.failed
    (if r.correct then "correct" else "NOT correct");
  print_endline (Json.to_string (Bench.result_json r))

(* Every workload, each in a fresh child process so that its set-up time
   and peak heap are its own. *)
let run_all args =
  let codes =
    List.map
      (fun (w : Bench.workload) ->
        let argv =
          Array.of_list ((Sys.executable_name :: "--workload" :: w.name :: args))
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1)
      Bench.workloads
  in
  exit (if List.for_all (( = ) 0) codes then 0 else 1)

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and trace_dir = ref ".bench_traces" and json = ref None in
  let passthrough = ref [] in
  let pass flag f v =
    passthrough := !passthrough @ [ flag; v ];
    f v
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME one workload (default: all, each in a child process)");
      ("--seed", Arg.String (pass "--seed" (fun s -> seed := int_of_string s)),
       "N input seed (default 0)");
      ("--seconds", Arg.String (pass "--seconds" (fun s -> seconds := float_of_string s)),
       "S measure for S seconds (default 10)");
      ("--trace", Arg.String (pass "--trace" (fun s -> trace := int_of_string s)),
       "0|1 1 = the traced per-layer pass (default 0)");
      ("--trace-dir", Arg.String (pass "--trace-dir" (fun s -> trace_dir := s)),
       "DIR where the traced pass writes Chrome traces (default .bench_traces)");
      ("--json", Arg.String (fun s -> json := Some s),
       "FILE also write the result object to FILE");
    ]
  in
  let usage =
    "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-dir DIR] [--json FILE]\nworkloads: "
    ^ String.concat ", " (List.map (fun (w : Bench.workload) -> w.name) Bench.workloads)
  in
  (try Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Failure msg ->
     prerr_endline ("bad argument: " ^ msg);
     exit 2);
  match !workload with
  | None -> run_all !passthrough
  | Some name -> (
    match Bench.find name with
    | None ->
      prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
      exit 2
    | Some w ->
      let traced = !trace <> 0 in
      if traced && not (Sys.file_exists !trace_dir) then Sys.mkdir !trace_dir 0o755;
      let r =
        Bench.run w ~seed:!seed ~seconds:!seconds ~traced ~trace_dir:!trace_dir
      in
      print_result r;
      Option.iter
        (fun file ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Json.to_string (Bench.result_json r));
              output_char oc '\n'))
        !json;
      exit (if r.correct then 0 else 1))
