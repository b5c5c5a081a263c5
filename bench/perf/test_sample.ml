(* The benchmark's statistics helpers against hand-computed values (the
   quartiles against Python's statistics.quantiles(xs, n=4)). *)

open Perf_lib

let close = Alcotest.float 1e-9

let percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50. (Sample.percentile 50. xs);
  Alcotest.check close "p90 of 1..100" 90. (Sample.percentile 90. xs);
  Alcotest.check close "p99 of 1..100" 99. (Sample.percentile 99. xs);
  Alcotest.check close "p100 is the max" 100. (Sample.percentile 100. xs);
  (* nearest rank: ceil(0.9 * 5) = 5th of five *)
  Alcotest.check close "p90 of five" 5. (Sample.percentile 90. [ 3.; 1.; 5.; 2.; 4. ]);
  Alcotest.check close "p1 of five" 1. (Sample.percentile 1. [ 3.; 1.; 5.; 2.; 4. ])

let median_mean_geomean () =
  Alcotest.check close "odd median" 3. (Sample.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even median" 2.5 (Sample.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "geomean" 4. (Sample.geomean [ 2.; 8. ]);
  Alcotest.check close "geomean of one" 7. (Sample.geomean [ 7. ]);
  Alcotest.check_raises "geomean refuses zero"
    (Invalid_argument "Sample.geomean: non-positive sample") (fun () ->
      ignore (Sample.geomean [ 1.; 0. ]))

let quartiles () =
  let q xs = Sample.quartiles xs in
  let t3 = Alcotest.(triple close close close) in
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.check t3 "1..10" (2.75, 5.5, 8.25)
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  (* statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5] *)
  Alcotest.check t3 "1..5" (1.5, 3., 4.5) (q [ 5.; 4.; 3.; 2.; 1. ]);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  Alcotest.check t3 "two samples" (0.75, 1.5, 2.25) (q [ 1.; 2. ]);
  (* (8.25 - 2.75) / 5.5 *)
  Alcotest.check close "relative IQR" 1.
    (Sample.rel_iqr (List.init 10 (fun i -> float_of_int (i + 1))))

let verdict () =
  let v ?(better = Sample.Lower) ?(bound = 0.05) base next =
    Sample.verdict_string (Sample.verdict ~better ~bound ~base ~next)
  in
  let s = Alcotest.string in
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.; 100.2; 99.8; 100.1; 99.9 ] in
  Alcotest.check s "same runs" "within bound" (v base base);
  Alcotest.check s "clearly faster" "better" (v base (List.map (fun x -> x *. 0.8) base));
  Alcotest.check s "clearly slower" "worse" (v base (List.map (fun x -> x *. 1.2) base));
  Alcotest.check s "slower within bound" "within bound"
    (v base (List.map (fun x -> x *. 1.03) base));
  Alcotest.check s "higher is better" "better"
    (v ~better:Sample.Higher base (List.map (fun x -> x *. 1.2) base));
  Alcotest.check s "lower when higher is better" "worse"
    (v ~better:Sample.Higher base (List.map (fun x -> x *. 0.8) base));
  (* base spread 40%, wider than the bound: a 2% slip is unresolved *)
  let noisy = [ 80.; 120.; 90.; 110.; 100.; 85.; 115.; 95.; 105.; 100. ] in
  Alcotest.check s "noisy base" "unresolved"
    (v noisy (List.map (fun x -> x *. 1.02) noisy));
  (* a gain smaller than the base's quartile distance is not claimed *)
  Alcotest.check s "gain inside the spread" "unresolved"
    (v noisy (List.map (fun x -> x *. 0.97) noisy));
  (* exact counts: any move in the bad direction regresses, whatever
     the bound *)
  Alcotest.check s "exact count moved" "worse"
    (v ~bound:0. [ 5.; 5.; 5. ] [ 6.; 6.; 6. ]);
  Alcotest.check s "exact count held" "within bound"
    (v ~bound:0. [ 5.; 5.; 5. ] [ 5.; 5.; 5. ]);
  Alcotest.check s "exact count, 1% loss under a 7% bound" "worse"
    (v ~better:Sample.Higher ~bound:0.07 [ 3.; 3.; 3. ] [ 2.97; 2.97; 2.97 ]);
  Alcotest.check s "exact count gained" "better"
    (v ~better:Sample.Higher ~bound:0.07 [ 3.; 3.; 3. ] [ 3.03; 3.03; 3.03 ])

let () =
  Alcotest.run "perf-sample"
    [ ( "sample",
        [ Alcotest.test_case "nearest-rank percentile" `Quick percentile;
          Alcotest.test_case "median, geomean" `Quick median_mean_geomean;
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "verdict" `Quick verdict ] ) ]
