(* Sample statistics for the benchmark: nearest-rank percentiles for
   latency tails, geometric means across programs, the quartiles Python's
   [statistics.quantiles(xs, n=4)] reports, and the better / worse /
   within-bound / unresolved verdict that [--compare] gives one
   (metric, workload) pair. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile: the smallest sample with at least [p]% of
    the samples at or below it.  [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

(** Median as Python's [statistics.median]: the mean of the two middle
    samples when their number is even. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> invalid_arg "Sample.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Sample.geomean: no samples"
  | _ ->
    if List.exists (fun x -> x <= 0.) xs then
      invalid_arg "Sample.geomean: non-positive sample";
    exp (mean (List.map log xs))

(** [(q1, q2, q3)] by Python's default ("exclusive") method.  Needs at
    least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Sample.quartiles: need two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

(** Distance between the quartiles as a share of the median. *)
let rel_iqr xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then (if q3 = q1 then 0. else infinity) else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

type verdict =
  | Better      (** the new side won the claim rule below *)
  | Worse       (** the new median is worse by more than the bound *)
  | Within      (** within the bound, and the spread resolves it *)
  | Unresolved  (** within the bound, but the base runs spread wider *)

let verdict_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* [x] reads better than [y] *)
let beats better x y = match better with Lower -> x < y | Higher -> x > y

(** The verdict for one (metric, workload) pair, from the runs of the
    base and new side:

    - better: the new side wins at least nine tenths of the pairs (run i
      of one side against run i of the other; ties count for neither)
      and the medians differ by more than the base's interquartile
      distance;
    - worse: the new median is worse than the base median by more than
      [bound] (a share of the base median);
    - unresolved: not worse by more than the bound, but the base's
      spread (interquartile distance over median) is wider than the
      bound, and the new runs do not all read better than every base
      run;
    - within bound otherwise.

    An exact count (every run of each side reads the same) has no noise
    for the bound to absorb: any move is better or worse. *)
let verdict ~better ~bound ~base ~next =
  if List.length base < 2 || List.length next < 2 then
    invalid_arg "Sample.verdict: need two runs a side";
  let exact xs = List.for_all (fun x -> x = List.hd xs) xs in
  let bound = if exact base && exact next then 0. else bound in
  let mb = median base and mn = median next in
  let q1, _, q3 = quartiles base in
  let pairs =
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
    in
    zip base next
  in
  let wins = List.length (List.filter (fun (b, n) -> beats better n b) pairs) in
  let worse_by =
    let d = match better with Lower -> mn -. mb | Higher -> mb -. mn in
    if mb = 0. then (if d > 0. then infinity else 0.) else d /. Float.abs mb
  in
  if
    beats better mn mb
    && 10 * wins >= 9 * List.length pairs
    && Float.abs (mn -. mb) > q3 -. q1
  then Better
  else if worse_by > bound then Worse
  else if
    rel_iqr base > bound
    && not
         (List.for_all (fun n -> List.for_all (fun b -> beats better n b) base)
            next)
  then Unresolved
  else Within
