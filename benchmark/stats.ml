(* Order statistics for reporting timings: the median, the quartiles the
   benchmark's spread check uses, and the "highest percentile with at
   least ten samples beyond it" rule for how far up a sample may be read. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quartiles xs] is Python's [statistics.quantiles(xs, n=4)] with its
   default "exclusive" method, so a spread computed here matches one
   computed over the same numbers by the benchmark's consumers. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let reportable = [ 50.0; 90.0; 99.0; 99.9 ]

(* The highest of p50/p90/p99/p99.9 with at least ten of [n] samples
   beyond it; [None] below 20 samples, where even the median has fewer
   than ten above it. *)
let highest_percentile n =
  List.fold_left
    (fun acc p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 -. 1e-9 then Some p
      else acc)
    None reportable
