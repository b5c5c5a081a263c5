(* The benchmark's command line.  Every mode reads the metric lists (and
   the bounds) from ./BENCHMARK.json, so it runs from the root of a
   checkout.

     perf.exe --workload W --seed S [--seconds N] [--trace 0|1] [--quick]
              [--json F] [--trace-out F]
       run W's timed phase with tracing off (set-ups timed in it), then
       (unless --trace 0) one traced pass; print every metric by name
       with its unit, and as the last line one JSON object
       {correct, attempted, failed, metrics}.  --seconds scales the fixed
       pass counts (default 10).  --trace 0 reports the end-to-end
       metrics only, --trace 1 the per-layer ones only.  --json appends
       the result line, tagged with workload and seed, to F; --trace-out
       writes the traced pass as Chrome-trace JSON.

     perf.exe --record N --seed S --out F [--workload W] [--seconds N]
              [--commit C]
       N runs of each workload (one process each) into one results file
       with host facts and the bounds the spread of those runs suggests.

     perf.exe --compare BASE NEW
       per (end-to-end metric, workload): median and quartiles of each
       side and a verdict under the bounds; per workload, the share of
       operations that failed.  Exits 1 when any pair is worse. *)

open Perf_lib
module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( try J.parse s with J.Parse_error e -> die "%s: %s" path e)

let load_specs () =
  try Metrics.specs_of (read_json "BENCHMARK.json")
  with Failure e -> die "BENCHMARK.json: %s" e

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

(* the value of each listed metric, in the list's order *)
let pick (specs : Metrics.spec list) computed =
  List.map
    (fun (s : Metrics.spec) ->
      match List.assoc_opt s.name computed with
      | Some v -> (s, v)
      | None -> die "BENCHMARK.json lists %s, which perf.exe does not compute" s.name)
    specs

let result_json ~correct ~attempted ~failed metrics =
  J.Obj
    [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun ((s : Metrics.spec), v) ->
               (s.name, J.Obj [ ("value", J.Float v); ("unit", J.Str s.unit_) ]))
             metrics) ) ]

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun ((s : Metrics.spec), v) ->
      Printf.printf "  %-30s %16.6g %s\n" s.name v s.unit_)
    metrics

let run_one (specs : Metrics.specs) ~kind ~seed ~sz ~trace ~json_out ~trace_out =
  let f = { Work.attempted = 0; failed = 0; notes = [] } in
  let name = Work.kind_name kind in
  let st, t = Work.timed sz kind ~seed ~work:".perf-work" f in
  Fun.protect ~finally:(fun () -> Work.teardown st) (fun () ->
      let rss = Metrics.peak_rss_mb () in
      let e2e = pick specs.end_to_end (Metrics.e2e st t ~rss) in
      let tr =
        if trace = Some 0 then None else Some (Work.traced st t ~seed f)
      in
      (* the traced runs must repeat the timed runs' counts exactly *)
      let traced_drift =
        match tr with
        | None -> 0
        | Some tr ->
          List.length
            (List.filter
               (fun (id, c) -> t.counts.(id) <> Some c)
               tr.run_counts)
      in
      let correct = f.failed = 0 && t.drift = 0 && traced_drift = 0 in
      List.iter (fun n -> prerr_endline ("perf: " ^ n)) (List.rev f.notes);
      if traced_drift > 0 then
        prerr_endline
          (Printf.sprintf "perf: %d traced runs counted differently" traced_drift);
      Printf.printf "workload %s  seed %d  %d programs  %d measured operations\n"
        name seed (Array.length st.progs) t.ops;
      Printf.printf "set-ups: %s s\n"
        (String.concat " " (List.map (Printf.sprintf "%.3f") t.setups));
      if trace <> Some 1 then print_metrics "end to end" e2e;
      let layers =
        match tr with
        | None -> []
        | Some tr ->
          let l = pick specs.per_layer (Metrics.layers st t tr) in
          print_metrics "per layer" l;
          print_endline "self time in the traced pass:";
          Span.print_table stdout tr.spans;
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  J.to_channel oc (Span.chrome tr.spans)))
            trace_out;
          l
      in
      let metrics =
        match trace with
        | Some 0 -> e2e
        | Some _ -> layers
        | None -> e2e @ layers
      in
      let result =
        result_json ~correct ~attempted:f.attempted ~failed:f.failed metrics
      in
      Option.iter
        (fun path ->
          let tagged =
            match result with
            | J.Obj kvs ->
              J.Obj (("workload", J.Str name) :: ("seed", J.Int seed) :: kvs)
            | j -> j
          in
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
            path (fun oc -> J.to_channel oc tagged))
        json_out;
      print_string (J.to_string result);
      print_newline ();
      correct)

(* ------------------------------------------------------------------ *)
(* Results files: one JSON object with "runs", or one run per line     *)

let load_runs path =
  let text =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> die "%s" e
    | s -> s
  in
  match Option.bind (J.member "runs" (J.parse text)) J.to_list with
  | Some runs -> runs
  | None | (exception J.Parse_error _) ->
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           try J.parse l with J.Parse_error e -> die "%s: %s" path e)

let runs_of runs workload =
  List.filter (fun run -> J.member "workload" run = Some (J.Str workload)) runs

(* [metric]'s value in [run]; [None] when missing or null *)
let value metric run =
  let ( let* ) = Option.bind in
  let* m = J.member "metrics" run in
  let* v = J.member metric m in
  let* x = J.member "value" v in
  J.to_float x

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)

let compare_files (specs : Metrics.specs) base next =
  let base = load_runs base and next = load_runs next in
  let worse = ref 0 in
  let row workload name b n change verdict =
    Printf.printf "%-10s %-20s %28s %28s %8s  %s\n" workload name b n change verdict
  in
  row "workload" "metric" "base median [q1, q3]" "new median [q1, q3]" "change"
    "verdict";
  List.iter
    (fun (workload, _) ->
      let rb = runs_of base workload and rn = runs_of next workload in
      if rb <> [] then begin
        (* more failed operations is a regression whatever the timings say *)
        let failed rs =
          let sum k =
            List.fold_left
              (fun n r -> n + Option.value (Option.bind (J.member k r) J.to_int) ~default:0)
              0 rs
          in
          (sum "failed", sum "attempted")
        in
        let fb, ab = failed rb and fn, an = failed rn in
        let frac f a = float_of_int f /. float_of_int (max 1 a) in
        let more_failed = rn = [] || frac fn an > frac fb ab in
        if more_failed then incr worse;
        row workload "failed" (Printf.sprintf "%d of %d" fb ab)
          (Printf.sprintf "%d of %d" fn an) ""
          (if more_failed then "worse" else "no more");
        List.iter
          (fun (s : Metrics.spec) ->
            let b = List.filter_map (value s.name) rb
            and n = List.map (value s.name) rn in
            let side xs =
              let q1, _, q3 = Sample.quartiles xs in
              Printf.sprintf "%.5g [%.5g, %.5g]" (Sample.median xs) q1 q3
            in
            if b = [] then ()
            else if rn = [] || List.mem None n then begin
              (* a run that stopped reporting a metric regressed on it *)
              incr worse;
              row workload s.name
                (if List.length b >= 2 then side b else "")
                "missing" "" "worse"
            end
            else
              let n = List.filter_map Fun.id n in
              if List.length b < 2 || List.length n < 2 then
                row workload s.name "" "" "" "too few runs"
              else begin
                let v = Sample.verdict ~better:s.better ~bound:s.bound ~base:b ~next:n in
                if v = Sample.Worse then incr worse;
                let mb = Sample.median b in
                row workload s.name (side b) (side n)
                  (Printf.sprintf "%+7.2f%%"
                     (if mb = 0. then 0. else 100. *. (Sample.median n -. mb) /. mb))
                  (Printf.sprintf "%s (bound %.0f%%)" (Sample.verdict_string v)
                     (100. *. s.bound))
              end)
          specs.end_to_end
      end)
    Work.kinds;
  if !worse > 0 then begin
    Printf.printf "%d regressions\n" !worse;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* --record                                                            *)

(* The spread of one (workload, metric)'s runs and the bound it suggests:
   max(3%, 3x the interquartile distance over the median). *)
let spread_json xs =
  let m = Sample.median xs and riqr = Sample.rel_iqr xs in
  let range =
    List.fold_left Float.max neg_infinity xs
    -. List.fold_left Float.min infinity xs
  in
  J.Obj
    [ ("median", J.Float m); ("rel_iqr", J.Float riqr);
      ("range_frac", J.Float (if m = 0. then 0. else range /. Float.abs m));
      ("bound", J.Float (Float.max 0.03 (3. *. riqr))) ]

let record (specs : Metrics.specs) ~runs ~seed ~seconds ~workloads ~out ~commit =
  let tmp = Filename.temp_file ~temp_dir:"." "perf-record" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun w ->
          for i = 1 to runs do
            Printf.eprintf "perf: %s run %d/%d\n%!" w i runs;
            let args =
              [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
                 "--seconds"; string_of_int seconds; "--json"; tmp |]
            in
            let pid =
              Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr
                Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> die "%s run %d failed" w i
          done)
        workloads;
      let runs_j = load_runs tmp in
      let spread =
        List.map
          (fun w ->
            ( w,
              J.Obj
                (List.filter_map
                   (fun (s : Metrics.spec) ->
                     match List.filter_map (value s.name) (runs_of runs_j w) with
                     | _ :: _ :: _ as xs -> Some (s.name, spread_json xs)
                     | _ -> None)
                   specs.end_to_end) ))
          workloads
      in
      let j =
        J.Obj
          [ ("schema", J.Str "daisy-perf-v1");
            ( "host",
              J.Obj
                [ ("nproc", J.Int (Domain.recommended_domain_count ()));
                  ("ocaml", J.Str Sys.ocaml_version); ("commit", J.Str commit) ] );
            ("seed", J.Int seed); ("seconds", J.Int seconds);
            ("runs_per_workload", J.Int runs); ("spread", J.Obj spread);
            ("runs", J.Arr runs_j) ]
      in
      Out_channel.with_open_text out (fun oc -> J.to_channel oc j);
      Printf.printf "wrote %s (%d runs)\n" out (List.length runs_j))

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref (-1) in
  let quick = ref false and json_out = ref "" and trace_out = ref "" in
  let base = ref "" and next = ref "" in
  let record_n = ref 0 and out = ref "" and commit = ref "unknown" in
  let spec =
    [ ( "--workload", Arg.Set_string workload,
        "W  steady, tier2, cold_code, warm_code, fill_code or serve" );
      ("--seed", Arg.Set_int seed, "S  input seed (default 1)");
      ( "--seconds", Arg.Set_int seconds,
        "N  scales the fixed pass counts to about N s (default 10; 1 with --quick)" );
      ( "--trace", Arg.Set_int trace,
        "0|1  report the end-to-end (0) or per-layer (1) metrics only" );
      ("--quick", Arg.Set quick, " one round on small inputs, about a second");
      ("--json", Arg.Set_string json_out, "F  append the tagged result line to F");
      ( "--trace-out", Arg.Set_string trace_out,
        "F  write the traced pass as Chrome-trace JSON" );
      ("--compare", Arg.Tuple [ Arg.Set_string base; Arg.Set_string next ],
       "BASE NEW  compare two results files");
      ( "--record", Arg.Set_int record_n,
        "N  runs per workload into a results file (--out)" );
      ("--out", Arg.Set_string out, "F  results file written by --record");
      ("--commit", Arg.Set_string commit, "C  commit recorded with --record") ]
  in
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "perf.exe --workload W --seed S [options]\n\
    \       perf.exe --compare BASE NEW\n\
    \       perf.exe --record N --out F [options]";
  let specs = load_specs () in
  let opt s = if s = "" then None else Some s in
  let seconds = if !seconds > 0 then !seconds else if !quick then 1 else 10 in
  if !base <> "" then compare_files specs !base !next
  else if !record_n > 0 then begin
    if !out = "" then die "--record needs --out";
    let workloads =
      if !workload = "" then List.map fst Work.kinds else [ !workload ]
    in
    record specs ~runs:!record_n ~seed:!seed ~seconds ~workloads ~out:!out
      ~commit:!commit
  end
  else begin
    let kind =
      match List.assoc_opt !workload Work.kinds with
      | Some k -> k
      | None -> die "--workload: unknown workload %S" !workload
    in
    let trace =
      match !trace with
      | -1 -> None
      | (0 | 1) as t -> Some t
      | t -> die "--trace: %d is neither 0 nor 1" t
    in
    let sz = Work.sizing ~quick:!quick ~seconds:(float_of_int seconds) kind in
    let correct =
      run_one specs ~kind ~seed:!seed ~sz ~trace ~json_out:(opt !json_out)
        ~trace_out:(opt !trace_out)
    in
    exit (if correct then 0 else 1)
  end
