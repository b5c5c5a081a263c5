(* Every metric the benchmark reports, computed by name.  Which metrics
   a run prints, with their units, directions and bounds, is read from
   BENCHMARK.json.

   End-to-end metrics are what a user of the workload sees and come from
   the timed phase, with tracing off.  Per-layer metrics come from the
   traced pass.  A layer that does not run on a workload reads 0 in its
   counts and shares; per-layer times are only those measured on every
   workload (direct calls on the workload's own programs where the run
   itself may skip the layer). *)

type spec = {
  name : string;
  unit_ : string;
  better : Sample.better;
  bound : float;  (** end-to-end only: the share by which it may worsen *)
}

type specs = { end_to_end : spec list; per_layer : spec list }

(** The metric lists of a parsed BENCHMARK.json. *)
let specs_of (j : Obs.Json.t) =
  let module J = Obs.Json in
  let spec x =
    let str k = match J.member k x with Some (J.Str s) -> s | _ -> "" in
    let better =
      match str "better" with
      | "lower" -> Sample.Lower
      | "higher" -> Sample.Higher
      | b -> failwith (Printf.sprintf "metric %S: better is %S" (str "name") b)
    in
    { name = str "name"; unit_ = str "unit"; better;
      bound = Option.value (Option.bind (J.member "bound" x) J.to_float) ~default:0. }
  in
  let list key =
    match J.member key j with
    | Some (J.Arr xs) -> List.map spec xs
    | _ -> failwith ("no " ^ key ^ " list")
  in
  { end_to_end = list "end_to_end"; per_layer = list "per_layer" }

(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.find_map
      (fun line ->
        try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan

let per_program (st : Work.setup) f =
  Array.to_list st.progs |> List.filter_map f

let e2e (st : Work.setup) (t : Work.timed) ~rss =
  let ns_per_insn =
    per_program st (fun p ->
        match t.ns.(p.id) with
        | [] -> None
        | l -> Some (Work.best l /. float_of_int p.insns))
  in
  let ilp =
    per_program st (fun p ->
        Option.map
          (fun (c : Work.counts) ->
            float_of_int p.insns /. float_of_int (max 1 (c.vliws + c.interp)))
          t.counts.(p.id))
  in
  let code, sched =
    Array.fold_left
      (fun (b, i) -> function
        | Some (c : Work.counts) -> (b + c.code_bytes, i + c.code_insns)
        | None -> (b, i))
      (0, 0) t.counts
  in
  let gm = function [] -> nan | l -> Sample.geomean l in
  [ ("ns_per_insn", gm ns_per_insn);
    ("programs_per_s", t.throughput);
    ("latency_ms_p50", t.p50_ns /. 1e6);
    ("latency_ms_p90", t.p90_ns /. 1e6);
    ("ilp", gm ilp);
    ("code_bytes_per_insn", float_of_int code /. float_of_int (max 1 sched));
    ("peak_rss_mb", rss);
    ("setup_s", Sample.median t.setups) ]

let layers (st : Work.setup) (t : Work.timed) (tr : Work.traced) =
  let tbl = Span.self_times tr.spans in
  let s = Span.find tbl in
  let sum f = List.fold_left (fun n (_, c) -> n + f c) 0 tr.run_counts in
  let fl = float_of_int in
  let div a b = if b = 0. then 0. else a /. b in
  let vliws = sum (fun c -> c.vliws) and interp = sum (fun c -> c.interp) in
  let hits = sum (fun c -> c.hits) and misses = sum (fun c -> c.misses) in
  let wall =
    fl
      (match st.kind with
      | Serve -> (s "serve.session").total_ns
      | _ -> (s "vmm.exec").total_ns)
  in
  let self name = fl (s name).self_ns in
  let per_call name scale =
    let x = s name in
    div (fl x.total_ns) (fl x.count) /. scale
  in
  let insns = Array.fold_left (fun n (p : Prog.t) -> n + p.insns) 0 st.progs in
  let stage = s "vliw.stage" in
  [ ("ppc.interp_insns", fl interp);
    ("ppc.interp_ns_per_insn", div (self "ppc.interp") (fl interp));
    ("ppc.reference_ns_per_insn", div (fl (s "ppc.reference").total_ns) (fl insns));
    ("translator.pages", fl (sum (fun c -> c.pages)));
    ("translator.insns_scheduled", fl (sum (fun c -> c.sched)));
    ("translator.us_per_page",
     div (fl (s "translator.direct").total_ns /. 1e3) (fl tr.direct_pages));
    ("translator.words_per_page",
     div (s "translator.direct").self_words (fl tr.direct_pages));
    ("translator.wall_frac", div (self "translator.translate") wall);
    ("vliw.vliws", fl vliws);
    ("vliw.stage_us_per_page", per_call "vliw.stage" 1e3);
    ("vliw.words_per_page", div stage.self_words (fl stage.count));
    ("vliw.exec_ns_per_vliw", div (self "vmm.exec") (fl vliws));
    ("vmm.cross_page", fl (sum (fun c -> c.cross)));
    ("vmm.rollbacks", fl (sum (fun c -> c.rollbacks)));
    ("vmm.direct_link_hits", fl (sum (fun c -> c.links)));
    ("vmm.exec_wall_frac", div (self "vmm.exec") wall);
    ("tcache.hits", fl hits);
    ("tcache.misses", fl misses);
    ("tcache.hit_rate", div (fl hits) (fl (hits + misses)));
    ("tcache.persists", fl (sum (fun c -> c.persists)));
    ("tcache.entry_bytes",
     div (fl tr.direct_bytes) (fl (s "tcache.direct_persist").count));
    ("tcache.probe_us", per_call "tcache.direct_probe" 1e3);
    ("tcache.persist_us", per_call "tcache.direct_persist" 1e3);
    ("tcache.wall_frac",
     div (self "tcache.probe" +. self "tcache.persist") wall);
    ("obs.events", fl tr.events);
    ("obs.recorder_frac", tr.recorder_frac);
    ("obs.tier2_promotions", fl (sum (fun c -> c.promotions)));
    ("obs.tier2_deopts", fl (sum (fun c -> c.deopts)));
    ("obs.tier2_compile_frac", div (self "obs.tier2_compile") wall);
    ("obs.tier2_region_vliw_frac",
     div (fl (sum (fun c -> c.region_vliws))) (fl vliws));
    ("serve.queue_wait_frac", t.queue_wait_frac);
    ("serve.max_queue_depth", fl t.max_depth);
    ("serve.gate_wins", fl t.gate_wins);
    ("serve.gate_waits", fl t.gate_waits);
    ("serve.sheds", fl t.sheds);
    ("bench.trace_overhead_frac", div tr.trace_ns tr.base_ns -. 1.);
    ("bench.gen_late_max_frac", t.late_max_frac) ]
