(* The bridge between the VMM's instrumentation interface and the
   observability sinks.  The VMM publishes {!Vmm.Monitor.event}s through
   {!Vmm.Monitor.on_event}; this module subscribes and fans each event out to
   whichever sinks were requested — the trace ring, the metrics
   histograms, the region profile, the flight recorder.  Every sink
   records; none renders on the hot path.  The dependency points
   obs -> vmm only: the VMM never links against this library. *)

module Monitor = Vmm.Monitor

type t = {
  tracer : Flight.Ring.t option;
      (** the [--trace-out] ring: raw events, rendered at export *)
  metrics : Metrics.t option;
  profile : Profile.t option;
  flight : Flight.t option;
  h_episode : Metrics.Histogram.t option;
      (** instructions per interpretation episode *)
  h_tr_insns : Metrics.Histogram.t option;
      (** base instructions per translation unit *)
  h_tr_vliws : Metrics.Histogram.t option;
      (** VLIWs created per translation unit *)
  h_tc_load : Metrics.Histogram.t option;
      (** milliseconds to load + decode one persistent-cache entry *)
  h_compile : Metrics.Histogram.t option;
      (** milliseconds to stage one page into closures *)
  h_checkpoint : Metrics.Histogram.t option;
      (** milliseconds to write one supervision checkpoint *)
}

let create ?tracer ?metrics ?profile ?flight () =
  let h name buckets =
    Option.map
      (fun m -> Metrics.histogram m ~buckets name)
      metrics
  in
  (match (flight, metrics, profile) with
  | Some f, m, p ->
    Option.iter (Flight.set_metrics f) m;
    Option.iter (Flight.set_profile f) p
  | None, _, _ -> ());
  { tracer; metrics; profile; flight;
    h_episode =
      h "interp_episode_insns" [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ];
    h_tr_insns =
      h "translate_unit_insns"
        [ 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096. ];
    h_tr_vliws =
      h "translate_unit_vliws"
        [ 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ];
    h_tc_load =
      h "tcache_load_ms" [ 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10. ];
    h_compile =
      h "vliw_compile_ms" [ 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10. ];
    h_checkpoint =
      h "checkpoint_ms" [ 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 25. ] }

(* A trigger event just went into the ring; snapshot everything.  The
   dump is first-wins per reason and best-effort, so this stays cheap
   under failure storms. *)
let crash b reason =
  match b.flight with Some f -> ignore (Flight.dump f ~reason) | None -> ()

let observe h v =
  match h with Some h -> Metrics.Histogram.observe_int h v | None -> ()

(* The hot path.  Both rings take the raw event (two stores, no
   allocation — the event value already exists) and the sink updates
   below are counter bumps; JSON is rendered only at a dump or an
   export, through {!Flight.render}, so a dump's tail is exactly the
   trace a trace ring would have kept. *)
let on_event b (ev : Monitor.event) =
  (match b.flight with Some f -> Flight.push f ev | None -> ());
  (match (b.tracer, ev) with
  | Some _, Page_enter _ ->
    (* page entries are far too frequent for the trace ring — but the
       flight recorder's whole job is the recent tail, so it kept this
       one above *)
    ()
  | Some r, _ -> Flight.Ring.push r ev
  | None, _ -> ());
  (match b.profile with Some p -> Profile.feed p ev | None -> ());
  match ev with
  | Translate_end { page; insns; vliws; bytes; _ } ->
    observe b.h_tr_insns insns;
    observe b.h_tr_vliws vliws;
    (match b.profile with
    | Some p -> Profile.translated p ~page ~insns ~bytes
    | None -> ())
  | Interp_end { insns; _ } -> observe b.h_episode insns
  | Tcache_hit { seconds; _ } ->
    (match b.h_tc_load with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Vliw_compiled { seconds; _ } ->
    (match b.h_compile with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Checkpoint_written { seconds; _ } ->
    (match b.h_checkpoint with
    | Some h -> Metrics.Histogram.observe h (seconds *. 1000.)
    | None -> ())
  | Region_promoted { seconds; _ } ->
    (* tier-2 region compiles land in the same histogram as tier-1 page
       staging — one latency view of "time spent making code" *)
    (match b.h_compile with
    | Some h when seconds > 0. ->
      Metrics.Histogram.observe h (seconds *. 1000.)
    | _ -> ())
  | Quarantine _ -> crash b "quarantine"
  | Deadline _ -> crash b "deadline"
  | Shadow_divergence _ -> crash b "divergence"
  | Tcache_quarantine _ -> crash b "tcache-quarantine"
  | _ -> ()

(** Subscribe this bridge to a VMM's event stream.  When a flight
    recorder is attached this is also the moment it gains a VMM whose
    counters and health its dumps read. *)
let attach b (vmm : Monitor.t) =
  Option.iter (fun f -> Flight.set_vmm f vmm) b.flight;
  Monitor.on_event vmm (on_event b)

(** Copy a finished run's measurements into [m]: every row of the
    VMM's counter table under its name (the timings as gauges), then
    the run's own figures, so exports agree exactly with the numbers
    the CLI prints. *)
let record_result m (r : Vmm.Run.result) =
  let c name v = Metrics.Counter.set (Metrics.counter m name) v in
  let g name v = Metrics.Gauge.set (Metrics.gauge m name) v in
  List.iter (fun (row : int Monitor.row) -> c row.name (row.get r.stats))
    Monitor.counters;
  List.iter (fun (row : float Monitor.row) -> g row.name (row.get r.stats))
    Monitor.timings;
  c "base_insns" r.base_insns;
  c "static_insns" r.static_insns;
  c "cycles_infinite" r.cycles_infinite;
  c "cycles_finite" r.cycles_finite;
  c "pages_translated" r.pages_translated;
  c "insns_translated" r.insns_translated;
  c "code_bytes" r.code_bytes;
  c "entry_points" r.totals.entry_points;
  c "vliws_made" r.totals.vliws_made;
  c "translation_groups" r.totals.groups;
  c "translation_invalidations" r.totals.invalidations;
  g "ilp_inf" r.ilp_inf;
  g "ilp_fin" r.ilp_fin;
  g "miss_l0d" r.miss_l0d;
  g "miss_l0i" r.miss_l0i;
  g "miss_joint" r.miss_joint
