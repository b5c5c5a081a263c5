(* Tests for the observability layer: JSON round-trips, the metrics
   registry, the trace ring, per-page profile accounting, and — most
   importantly — that attaching telemetry to a run changes nothing
   observable while its numbers agree exactly with the VMM's own. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace

(* --- JSON --------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd\te\r \x01");
        ("neg", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("t", Json.Bool true);
        ("nil", Json.Null);
        ("arr", Json.Arr [ Json.Int 1; Json.Str "x"; Json.Obj [] ]) ]
  in
  let v' = Json.parse (Json.to_string v) in
  Alcotest.(check bool) "round-trips" true (v = v')

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | _ -> Alcotest.failf "parsed %S" s
    | exception Json.Parse_error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"unterminated"

(* --- Metrics ------------------------------------------------------ *)

let test_metrics_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m "widgets" in
  Metrics.Counter.add c 42;
  Metrics.Counter.inc c;
  let g = Metrics.gauge m "ratio" in
  Metrics.Gauge.set g 3.25;
  let h = Metrics.histogram m ~buckets:[ 1.; 4.; 16. ] "sizes" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 3.; 3.; 10.; 100. ];
  let j = Json.parse (Json.to_string (Metrics.to_json m)) in
  let counter =
    Option.bind (Json.member "counters" j) (Json.member "widgets")
  in
  Alcotest.(check (option int)) "counter" (Some 43)
    (Option.bind counter Json.to_int);
  let gauge = Option.bind (Json.member "gauges" j) (Json.member "ratio") in
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 3.25)
    (Option.bind gauge Json.to_float);
  let hist = Option.bind (Json.member "histograms" j) (Json.member "sizes") in
  let buckets =
    Option.bind (Option.bind hist (Json.member "buckets")) Json.to_list
    |> Option.value ~default:[]
  in
  let counts =
    List.filter_map
      (fun b -> Option.bind (Json.member "count" b) Json.to_int)
      buckets
  in
  Alcotest.(check (list int)) "bucket counts" [ 1; 2; 1; 1 ] counts;
  Alcotest.(check (option (float 1e-9))) "sum" (Some 116.5)
    (Option.bind (Option.bind hist (Json.member "sum")) Json.to_float);
  Alcotest.(check (option int)) "count" (Some 5)
    (Option.bind (Option.bind hist (Json.member "count")) Json.to_int)

let test_metrics_duplicate () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Metrics: duplicate metric \"x\"") (fun () ->
      ignore (Metrics.gauge m "x"))

(* --- Trace ring --------------------------------------------------- *)

let test_ring_bound () =
  let t = Trace.create ~capacity:4 () in
  for ts = 1 to 10 do
    Trace.emit t ~ts ~name:"e" ~ph:Trace.I [ ("n", Json.Int ts) ]
  done;
  Alcotest.(check int) "length" 4 (Trace.length t);
  Alcotest.(check int) "total" 10 (Trace.total t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let retained = List.map (fun (e : Trace.ev) -> e.ts) (Trace.to_list t) in
  Alcotest.(check (list int)) "keeps the last events" [ 7; 8; 9; 10 ] retained;
  let j = Json.parse (Json.to_string (Trace.to_chrome t)) in
  let evs =
    Option.bind (Json.member "traceEvents" j) Json.to_list
    |> Option.value ~default:[]
  in
  Alcotest.(check int) "chrome export has the retained events" 4
    (List.length evs)

(* --- Runs with telemetry attached --------------------------------- *)

let run_traced ?metrics ?profile name =
  let tracer = Trace.create ~capacity:(1 lsl 20) () in
  let bridge = Obs.Bridge.create ~tracer ?metrics ?profile () in
  let w = Workloads.Registry.by_name name in
  let r =
    Vmm.Run.run ~instrument:(fun vmm -> Obs.Bridge.attach bridge vmm) w
  in
  (r, tracer)

let test_translate_balance () =
  let r, tracer = run_traced "compress" in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tracer);
  let begins = ref 0 and ends = ref 0 and insns = ref 0 in
  Trace.iter
    (fun (e : Trace.ev) ->
      if e.name = "translate" then
        match e.ph with
        | Trace.B -> incr begins
        | Trace.E ->
          incr ends;
          (match Option.bind (List.assoc_opt "insns" e.args) Json.to_int with
          | Some n -> insns := !insns + n
          | None -> Alcotest.fail "translate end without insns arg")
        | _ -> ())
    tracer;
  Alcotest.(check bool) "translations happened" true (!begins > 0);
  Alcotest.(check int) "balanced begin/end" !begins !ends;
  Alcotest.(check int) "event insns sum to translator totals"
    r.totals.Translator.Translate.insns !insns

let test_disabled_changes_nothing () =
  let w = Workloads.Registry.by_name "wc" in
  let plain = Vmm.Run.run w in
  let traced, _ = run_traced "wc" in
  (* Run.run itself verifies architected state and memory against the
     reference interpreter, so agreement of the measurements is the
     remaining observable surface. *)
  Alcotest.(check (option int)) "exit" plain.exit_code traced.exit_code;
  Alcotest.(check int) "vliws" plain.vliws traced.vliws;
  Alcotest.(check int) "interp_insns" plain.interp_insns traced.interp_insns;
  Alcotest.(check int) "base_insns" plain.base_insns traced.base_insns;
  Alcotest.(check int) "cycles" plain.cycles_infinite traced.cycles_infinite;
  Alcotest.(check int) "rollbacks" plain.stats.rollbacks
    traced.stats.rollbacks;
  Alcotest.(check int) "pages" plain.pages_translated traced.pages_translated;
  Alcotest.(check int) "code bytes" plain.code_bytes traced.code_bytes;
  Alcotest.(check (float 1e-12)) "ilp" plain.ilp_inf traced.ilp_inf

let test_profile_accounting () =
  let profile =
    Obs.Profile.create ~page_size:Translator.Params.default.page_size ()
  in
  let r, _ = run_traced ~profile "wc" in
  Obs.Profile.flush profile ~vliws_total:r.vliws;
  let pages = Obs.Profile.pages_ranked profile in
  Alcotest.(check bool) "pages profiled" true (pages <> []);
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 pages in
  Alcotest.(check int) "VLIWs fully attributed" r.vliws
    (sum (fun (p : Obs.Profile.page) -> p.vliws));
  Alcotest.(check int) "translation work fully attributed"
    r.insns_translated
    (sum (fun (p : Obs.Profile.page) -> p.insns_scheduled))

let test_metrics_agree_with_run () =
  let metrics = Metrics.create () in
  let r, _ = run_traced ~metrics "wc" in
  Obs.Bridge.record_result metrics r;
  let counter name =
    match Metrics.find_counter metrics name with
    | Some c -> Metrics.Counter.value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "vliws" r.vliws (counter "vliws");
  Alcotest.(check int) "interp_insns" r.interp_insns (counter "interp_insns");
  Alcotest.(check int) "aliases" r.stats.aliases (counter "aliases");
  Alcotest.(check int) "pages_translated" r.pages_translated
    (counter "pages_translated");
  Alcotest.(check int) "loads" r.loads (counter "loads")

(* --- Table hardening ---------------------------------------------- *)

let test_table_ragged () =
  (* short and long rows must render, not raise *)
  Stats.Table.render ~header:[ "a"; "b"; "c" ]
    [ [ "only" ]; [ "x"; "y"; "z" ]; [ "p"; "q"; "r"; "extra" ] ]

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors ] );
      ( "metrics",
        [ Alcotest.test_case "roundtrip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "duplicate" `Quick test_metrics_duplicate ] );
      ( "trace",
        [ Alcotest.test_case "ring bound" `Quick test_ring_bound;
          Alcotest.test_case "translate balance" `Slow test_translate_balance
        ] );
      ( "purity",
        [ Alcotest.test_case "tracing changes nothing" `Quick
            test_disabled_changes_nothing ] );
      ( "profile",
        [ Alcotest.test_case "accounting" `Quick test_profile_accounting ] );
      ( "bridge",
        [ Alcotest.test_case "metrics agree with run" `Quick
            test_metrics_agree_with_run ] );
      ( "table",
        [ Alcotest.test_case "ragged rows" `Quick test_table_ragged ] ) ]
