(** Fixed-bucket drift histograms (see the interface). *)

(* Bucket upper bounds (exclusive); the last bucket is open-ended.  The
   grid is asymmetric around 1.0 on purpose: a ratio just under 1.0 means
   a sound over-estimate (healthy), just over 1.0 means the prediction was
   exceeded — the interesting tail gets finer buckets. *)
let bounds = [ 0.5; 0.9; 0.99; 1.0; 1.01; 1.1; 2.0; 10.0 ]

let labels =
  [
    "<0.5"; "0.5-0.9"; "0.9-0.99"; "0.99-1.0"; "1.0-1.01"; "1.01-1.1";
    "1.1-2"; "2-10"; ">=10";
  ]

type t = {
  counts : int array;  (** one per label *)
  mutable non_finite : int;
  mutable n : int;
  mutable sum : float;  (** of finite ratios, for the mean *)
}

let create () =
  { counts = Array.make (List.length labels) 0; non_finite = 0; n = 0; sum = 0.0 }

let bucket_index r =
  let rec go i = function
    | [] -> i
    | b :: rest -> if r < b then i else go (i + 1) rest
  in
  go 0 bounds

let add t r =
  t.n <- t.n + 1;
  if Float.is_finite r then begin
    t.sum <- t.sum +. r;
    let i = bucket_index r in
    t.counts.(i) <- t.counts.(i) + 1
  end
  else t.non_finite <- t.non_finite + 1

let count t = t.n

let buckets t =
  List.concat
    [
      List.combine labels (Array.to_list t.counts);
      (if t.non_finite > 0 then [ ("non-finite", t.non_finite) ] else []);
    ]

let mean t =
  let finite = t.n - t.non_finite in
  if finite = 0 then Float.nan else t.sum /. float_of_int finite

let to_json t =
  let module J = Relax_obs.Json in
  J.Obj
    [
      ("count", J.Int t.n);
      ("mean", J.Float (mean t));
      ( "buckets",
        J.Obj (List.map (fun (l, c) -> (l, J.Int c)) (buckets t)) );
    ]

let pp ppf t =
  if t.n = 0 then Fmt.pf ppf "(empty)"
  else begin
    Fmt.pf ppf "n=%d mean=%.4f" t.n (mean t);
    List.iter
      (fun (l, c) -> if c > 0 then Fmt.pf ppf " [%s]=%d" l c)
      (buckets t)
  end
