(* The daisy command-line tool.

     daisy list                      — available workloads
     daisy run <workload> [...]     — run under DAISY, print statistics
     daisy profile <workload>       — per-page hotness profile
     daisy trees <workload>         — dump the entry page's tree VLIWs
     daisy experiments [ids]        — regenerate paper tables/figures
     daisy ladder <workload>        — the parallelism ladder (Ch. 6)
     daisy fuzz --seed S --pages N  — differential fuzzing vs. the
                                      reference interpreter
     daisy resume <dir>             — continue a checkpointed run
     daisy tcache <dir> ...         — inspect the persistent cache
     daisy serve <dir> [...]        — multi-tenant session daemon over a
                                      shared translation cache
     daisy client <command> [...]   — drive a running daemon

   Exit codes: 0 = ran and verified; 3 = differential verification
   failed (a compatibility bug); 4 = verified bit-exact, but only by
   degrading — the ladder quarantined pages or pinned them to
   interpretation after injected/real faults; 143 = stopped by SIGTERM
   at a commit boundary, leaving a resumable checkpoint behind. *)

open Cmdliner
module Params = Translator.Params
module Vec = Translator.Vec

let workload_conv =
  let parse s =
    match Workloads.Registry.by_name s with
    | w -> Ok w
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf (w : Workloads.Wl.t) -> Format.pp_print_string ppf w.name)

let config_conv =
  let parse s =
    let found =
      Array.to_list Vliw.Config.figure_5_1
      |> List.find_opt (fun (c : Vliw.Config.t) -> c.name = s)
    in
    match found with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown config %S (have: %s)" s
             (String.concat ", "
                (Array.to_list Vliw.Config.figure_5_1
                |> List.map (fun (c : Vliw.Config.t) -> c.name)))))
  in
  Arg.conv (parse, fun ppf (c : Vliw.Config.t) -> Format.pp_print_string ppf c.name)

let params_term =
  let config =
    Arg.(value & opt config_conv Vliw.Config.default
         & info [ "config" ] ~docv:"NAME" ~doc:"Machine configuration (e.g. 24-16-8-7).")
  in
  let page =
    Arg.(value & opt int 4096 & info [ "page-size" ] ~docv:"BYTES" ~doc:"Translation unit.")
  in
  let window =
    Arg.(value & opt int Params.default.window & info [ "window" ] ~doc:"Per-path window.")
  in
  let join =
    Arg.(value & opt int Params.default.join_limit
         & info [ "join-limit" ] ~doc:"Re-schedule budget per base instruction.")
  in
  let no_rename = Arg.(value & flag & info [ "no-rename" ] ~doc:"Disable out-of-order renaming.") in
  let no_spec = Arg.(value & flag & info [ "no-load-spec" ] ~doc:"Keep loads below stores.") in
  let no_fwd = Arg.(value & flag & info [ "no-forward" ] ~doc:"Disable store-to-load forwarding.") in
  let single = Arg.(value & flag & info [ "single-path" ] ~doc:"Schedule only the probable path.") in
  let adaptive =
    Arg.(value & flag
         & info [ "adaptive-alias" ]
             ~doc:"Retranslate pages without load speculation on alias storms.")
  in
  let make config page window join no_rename no_spec no_fwd single adaptive =
    { Params.default with
      config; page_size = page; window; join_limit = join;
      rename = not no_rename; load_spec = not no_spec;
      store_forward = not no_fwd; multipath = not single;
      adaptive_alias = adaptive }
  in
  Term.(const make $ config $ page $ window $ join $ no_rename $ no_spec
        $ no_fwd $ single $ adaptive)

(* Shared --fault-* flags: every injector class of lib/fault, off by
   default.  Returns [None] when every rate is zero (no hooks are
   attached at all). *)
let fault_term =
  let seed =
    Arg.(value & opt int 0xDA15
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed for the fault-injection RNG streams.")
  in
  let rate name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"RATE" ~doc)
  in
  let tr = rate "fault-translator" "Translator crash probability per translation request." in
  let bf = rate "fault-bitflip" "Probability of corrupting a tree-VLIW node per page install." in
  let po = rate "fault-tcache" "Probability of flipping a byte in each persisted tcache entry." in
  let ir = rate "fault-interrupts" "External-interrupt probability per VLIW-tree boundary." in
  let st = rate "fault-storms" "Probability a page-fault storm starts, per VLIW." in
  let si =
    rate "fault-silent"
      "Probability of *silently* corrupting a page per install (a branch \
       test's sense is inverted; only shadow verification can catch it)."
  in
  let sm =
    rate "fault-selfmod"
      "Probability per VLIW entry of a same-value byte store into code (a \
       promoted tier-2 member page when one exists) — semantically inert, \
       but it must deopt the region / invalidate the page."
  in
  let sl =
    Arg.(value & opt int 16
         & info [ "fault-storm-length" ] ~docv:"N"
             ~doc:"Forced faults per storm.")
  in
  let cocktail =
    Arg.(value & flag
         & info [ "fault-cocktail" ]
             ~doc:"Enable every injector class at its default rate.")
  in
  let make seed tr bf po ir st si sm sl cocktail =
    let d = if cocktail then Fault.Inject.cocktail else Fault.Inject.quiet in
    let pick v dflt = if v > 0. then v else dflt in
    let cfg =
      { Fault.Inject.seed;
        translator_fault_rate = pick tr d.translator_fault_rate;
        bitflip_rate = pick bf d.bitflip_rate;
        tcache_poison_rate = pick po d.tcache_poison_rate;
        interrupt_rate = pick ir d.interrupt_rate;
        storm_rate = pick st d.storm_rate;
        storm_length = sl;
        silent_rate = pick si d.silent_rate;
        selfmod_rate = pick sm d.selfmod_rate }
    in
    if
      cfg.translator_fault_rate > 0. || cfg.bitflip_rate > 0.
      || cfg.tcache_poison_rate > 0. || cfg.interrupt_rate > 0.
      || cfg.storm_rate > 0. || cfg.silent_rate > 0.
      || cfg.selfmod_rate > 0.
    then Some cfg
    else None
  in
  Term.(const make $ seed $ tr $ bf $ po $ ir $ st $ si $ sm $ sl $ cocktail)

(* Shared supervision flags (lib/guard): checkpointing, watchdog
   deadlines and sampled shadow verification. *)
type guard_opts = {
  g_checkpoint_dir : string option;
  g_every : int;
  g_console_out : string option;
  g_shadow_sample : float;
  g_shadow_seed : int;
  g_shadow_out : string option;
  g_wd_translate : float option;
  g_wd_compile : float option;
  g_wd_progress : int option;
}

let guard_term =
  let ck_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Write periodic resumable snapshots to $(docv); a killed \
                   run continues with $(b,daisy resume) $(docv).")
  in
  let every =
    Arg.(value & opt int 50_000
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Commit-boundary cycles (VLIWs + interpreted instructions, \
                   the VMM's proxy for base instructions) between snapshots.")
  in
  let console_out =
    Arg.(value & opt (some string) None
         & info [ "console-out" ] ~docv:"FILE"
             ~doc:"Write the guest console output to $(docv) (the \
                   crash-recovery invariant: bit-identical across kill and \
                   resume).")
  in
  let shadow_sample =
    Arg.(value & opt float 0.
         & info [ "shadow-sample" ] ~docv:"RATE"
             ~doc:"Re-execute this fraction of committed VLIW packets under \
                   the reference interpreter and compare architected effects \
                   (1.0 = every packet).")
  in
  let shadow_seed =
    Arg.(value & opt int 0
         & info [ "shadow-seed" ] ~docv:"SEED" ~doc:"Shadow sampler seed.")
  in
  let shadow_out =
    Arg.(value & opt (some string) None
         & info [ "shadow-out" ] ~docv:"DIR"
             ~doc:"Write a fuzz-format reproducer here on shadow divergence \
                   (replay with $(b,daisy fuzz --replay)).")
  in
  let wd_translate =
    Arg.(value & opt (some float) None
         & info [ "watchdog-translate" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget per page translation; an overrun takes \
                   a ladder strike and recovers by interpretation.")
  in
  let wd_compile =
    Arg.(value & opt (some float) None
         & info [ "watchdog-compile" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget per page staging into closures; an \
                   overrun takes a ladder strike like a translation \
                   overrun.")
  in
  let wd_progress =
    Arg.(value & opt (some int) None
         & info [ "watchdog-progress" ] ~docv:"N"
             ~doc:"Runaway-loop detector: quarantine a page after $(docv) \
                   consecutive committed boundaries at the same pc with no \
                   interpretation in between.")
  in
  let make g_checkpoint_dir g_every g_console_out g_shadow_sample g_shadow_seed
      g_shadow_out g_wd_translate g_wd_compile g_wd_progress =
    { g_checkpoint_dir; g_every; g_console_out; g_shadow_sample; g_shadow_seed;
      g_shadow_out; g_wd_translate; g_wd_compile; g_wd_progress }
  in
  Term.(const make $ ck_dir $ every $ console_out $ shadow_sample $ shadow_seed
        $ shadow_out $ wd_translate $ wd_compile $ wd_progress)

(* Shared --tier2-* flags: the tier-2 promotion driver (lib/obs Tier).
   Off by default; every threshold flag implies nothing on its own —
   only --tier2 attaches the driver. *)
type tier2_opts = {
  t2_enable : bool;
  t2_min_heat : int;
  t2_edge_threshold : int;
  t2_max_pages : int;
  t2_check_every : int;
  t2_max_deopts : int;
  t2_sync : bool;
}

let tier2_term =
  let enable =
    Arg.(value & flag
         & info [ "tier2" ]
             ~doc:"Promote hot pages and inter-page regions to the \
                   superblock scheduler at run time: wide-window \
                   re-translation across former page boundaries, atomic \
                   swap-in, deopt back to tier-1 on any assumption \
                   failure.")
  in
  let d = Obs.Tier.default in
  let min_heat =
    Arg.(value & opt int d.Obs.Tier.min_heat
         & info [ "tier2-min-heat" ] ~docv:"N"
             ~doc:"Execution weight (VLIWs + interpreted instructions) a \
                   page must accumulate before promotion.")
  in
  let edge_threshold =
    Arg.(value & opt int d.Obs.Tier.edge_threshold
         & info [ "tier2-edge-threshold" ] ~docv:"N"
             ~doc:"Traversal count an exit edge needs to participate in an \
                   inter-page region candidate.")
  in
  let max_pages =
    Arg.(value & opt int d.Obs.Tier.max_pages
         & info [ "tier2-max-pages" ] ~docv:"N"
             ~doc:"Largest member-page set compiled into one region image.")
  in
  let check_every =
    Arg.(value & opt int d.Obs.Tier.check_every
         & info [ "tier2-check-every" ] ~docv:"N"
             ~doc:"Committed boundaries between promotion-policy \
                   evaluations.")
  in
  let max_deopts =
    Arg.(value & opt int d.Obs.Tier.max_deopts
         & info [ "tier2-max-deopts" ] ~docv:"N"
             ~doc:"Deopt strikes before a region candidate is blacklisted \
                   for the rest of the run.")
  in
  let sync =
    Arg.(value & flag
         & info [ "tier2-sync" ]
             ~doc:"Compile promoted regions on the execution thread instead \
                   of a background domain (deterministic timing; used by \
                   tests).")
  in
  let make t2_enable t2_min_heat t2_edge_threshold t2_max_pages t2_check_every
      t2_max_deopts t2_sync =
    { t2_enable; t2_min_heat; t2_edge_threshold; t2_max_pages; t2_check_every;
      t2_max_deopts; t2_sync }
  in
  Term.(const make $ enable $ min_heat $ edge_threshold $ max_pages
        $ check_every $ max_deopts $ sync)

(* The driver config minus [submit], which depends on whether the caller
   has a background pool to offer. *)
let tier2_config (o : tier2_opts) ~submit =
  if not o.t2_enable then None
  else
    Some
      { Obs.Tier.min_heat = o.t2_min_heat;
        edge_threshold = o.t2_edge_threshold; max_pages = o.t2_max_pages;
        check_every = o.t2_check_every; max_deopts = o.t2_max_deopts;
        submit = (if o.t2_sync then None else submit) }

let with_out path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
    Printf.eprintf "daisy: %s\n" msg;
    exit 1

let write_json path j = with_out path (fun oc -> Obs.Json.to_channel oc j)

(* Fail fast on unwritable output paths: a long run must not discover
   only at the end that its results have nowhere to go.  Probed before
   the run starts; a clear message and usage-error exit, not a raw
   [Sys_error] backtrace. *)
let check_writable_file what path =
  match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
  | oc -> close_out_noerr oc
  | exception Sys_error msg ->
    Printf.eprintf "daisy: %s path is not writable: %s\n" what msg;
    exit 2

let check_writable_dir what dir =
  match
    Tcache.Store.mkdir_p dir;
    let probe = Filename.temp_file ~temp_dir:dir ".probe" ".tmp" in
    Sys.remove probe
  with
  | () -> ()
  | exception Sys_error msg ->
    Printf.eprintf "daisy: %s directory %s is not writable: %s\n" what dir msg;
    exit 2

(* The profile store's key: the workload image (name, entry point, the
   exact memory bytes after [instantiate]) plus the page size, which is
   the one translation parameter that changes the *shape* of the edge
   graph rather than its weights.  Scheduling parameters deliberately do
   not participate — heat accumulates across window/config sweeps. *)
let image_fingerprint (w : Workloads.Wl.t) ~page_size =
  let mem, entry = Workloads.Wl.instantiate w in
  Printf.sprintf "%s:%s:0x%x:%d" w.name
    (Digest.to_hex (Digest.bytes mem.bytes))
    entry page_size

let profile_store (w : Workloads.Wl.t) ~dir ~page_size =
  Obs.Pstore.open_store ~dir ~frontend:"ppc"
    ~fingerprint:(image_fingerprint w ~page_size) ()

let trace_format_conv = Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]

let list_cmd =
  let doc = "List the available workloads." in
  let run () =
    List.iter
      (fun (w : Workloads.Wl.t) -> Printf.printf "%-10s %s\n" w.name w.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run a workload under DAISY and print statistics." in
  let finite =
    Arg.(value & flag
         & info [ "finite" ] ~doc:"Attach the paper's 24-issue cache hierarchy.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a VMM event trace to $(docv).")
  in
  let trace_format =
    Arg.(value & opt trace_format_conv `Chrome
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Trace format: $(b,chrome) (Perfetto-loadable trace_event \
                   JSON) or $(b,jsonl) (one event object per line).")
  in
  let trace_cap =
    Arg.(value & opt int (1 lsl 20)
         & info [ "trace-cap" ] ~docv:"N"
             ~doc:"Ring-buffer capacity: keep the last $(docv) events.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the metrics registry (counters, gauges, histograms) \
                   as JSON to $(docv).")
  in
  let tcache_dir =
    Arg.(value & opt (some string) None
         & info [ "tcache" ] ~docv:"DIR"
             ~doc:"Persist translations in the content-addressed cache at \
                   $(docv); pages whose exact bytes were translated before \
                   (under the same parameters) are installed from disk \
                   instead of being retranslated.")
  in
  let profile_dir =
    Arg.(value & opt (some string) None
         & info [ "profile-dir" ] ~docv:"DIR"
             ~doc:"Accumulate this run's region profile into the persistent \
                   store at $(docv); repeated runs merge (counts sum), and \
                   $(b,daisy profile) reads the result.")
  in
  let crash_dump_dir =
    Arg.(value & opt string "daisy-crash"
         & info [ "crash-dump-dir" ] ~docv:"DIR"
             ~doc:"Where the flight recorder writes crash dumps on \
                   divergence, watchdog strike, quarantine, mismatch or \
                   SIGTERM (created only when a dump happens).")
  in
  let no_flight =
    Arg.(value & flag
         & info [ "no-flight" ]
             ~doc:"Disable the always-on flight recorder (no crash dumps).")
  in
  let flight_cap =
    Arg.(value & opt int Obs.Flight.default_capacity
         & info [ "flight-cap" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity: a crash dump's event tail \
                   keeps the last $(docv) events.")
  in
  let w = Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD") in
  let run (w : Workloads.Wl.t) params finite trace_out trace_format
      trace_cap metrics_out tcache_dir profile_dir crash_dump_dir no_flight
      flight_cap faults guard tier2 =
    if trace_cap <= 0 then begin
      Printf.eprintf "daisy: --trace-cap must be positive\n";
      exit 2
    end;
    if flight_cap <= 0 then begin
      Printf.eprintf "daisy: --flight-cap must be positive\n";
      exit 2
    end;
    (* probe every output destination before burning cycles on the run *)
    Option.iter (check_writable_file "--trace-out") trace_out;
    Option.iter (check_writable_file "--metrics-out") metrics_out;
    Option.iter (check_writable_dir "--profile-dir") profile_dir;
    let hierarchy = if finite then Some (Memsys.Hierarchy.paper_24issue ()) else None in
    let tracer =
      Option.map (fun _ -> Obs.Trace.create ~capacity:trace_cap ()) trace_out
    in
    let metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out in
    let flight =
      if no_flight then None
      else Some (Obs.Flight.create ~capacity:flight_cap ~dir:crash_dump_dir ())
    in
    (* the region profile feeds both the persistent store and the crash
       dump's region graph, so it runs whenever either consumer does *)
    let profile =
      if profile_dir <> None || Option.is_some flight then
        Some (Obs.Profile.create ~page_size:params.Params.page_size ())
      else None
    in
    (* open (and sweep) the store up front: a stale temp file from a
       killed writer is cleaned before this run adds its own *)
    let pstore =
      Option.map
        (fun dir -> profile_store w ~dir ~page_size:params.Params.page_size)
        profile_dir
    in
    let bridge =
      match (tracer, metrics, profile, flight) with
      | None, None, None, None -> None
      | _ -> Some (Obs.Bridge.create ?tracer ?metrics ?profile ?flight ())
    in
    let inject = Option.map Fault.Inject.create faults in
    let watchdog =
      { Guard.Watchdog.translate_s = guard.g_wd_translate;
        compile_s = guard.g_wd_compile; progress = guard.g_wd_progress;
        session_s = None }
    in
    let shadow =
      if guard.g_shadow_sample > 0. then
        Some
          { Guard.Shadow.default with sample = guard.g_shadow_sample;
            seed = guard.g_shadow_seed; out_dir = guard.g_shadow_out }
      else None
    in
    let supervised =
      guard.g_checkpoint_dir <> None || shadow <> None
      || watchdog <> Guard.Watchdog.none
      (* a flight recorder rides the supervision stack too, for the
         SIGTERM-boundary dump *)
      || Option.is_some flight
    in
    if guard.g_checkpoint_dir <> None then Guard.Supervise.install_sigterm ();
    (* one background domain for tier-2 region compiles, so promotion
       never blocks the execution thread; --tier2-sync skips the pool.
       The pre-sized minor heap keeps the compile domain from paying
       the minor-GC latency inline compiles never saw. *)
    let tier2_pool =
      if tier2.t2_enable && not tier2.t2_sync then
        Some (Serve.Pool.create ~domains:1 ~minor_heap_words:(1 lsl 22) ())
      else None
    in
    let tier2_cfg =
      tier2_config tier2
        ~submit:
          (Option.map
             (fun pool job -> Serve.Pool.submit pool job)
             tier2_pool)
    in
    let instrument =
      match (bridge, inject, supervised, tier2_cfg) with
      | None, None, false, None -> None
      | _ ->
        Some
          (fun vmm ->
            (match bridge with Some b -> Obs.Bridge.attach b vmm | None -> ());
            (match inject with Some i -> Fault.Inject.attach i vmm | None -> ());
            if supervised then
              ignore
                (Guard.Supervise.attach ?checkpoint_dir:guard.g_checkpoint_dir
                   ~checkpoint_every:guard.g_every ~watchdog ?shadow ?flight
                   ~workload:w.name vmm);
            (* last: the tier driver chains whatever hooks the bridge and
               supervisor installed, so attachment order is load-bearing *)
            match tier2_cfg with
            | Some cfg -> ignore (Obs.Tier.attach ~cfg vmm)
            | None -> ())
    in
    (* a transparent injected interrupt leaves exactly one architected
       trace: the mini OS's interrupt counter word *)
    let ignore_mem =
      match faults with
      | Some (f : Fault.Inject.config) when f.interrupt_rate > 0. ->
        [ Workloads.Wl.interrupt_count_addr ]
      | _ -> []
    in
    let r =
      try Vmm.Run.run ~params ?hierarchy ?instrument ?tcache_dir ~ignore_mem w
      with
      | Vmm.Run.Mismatch msg ->
        (* differential verification against the reference interpreter
           failed: a correctness bug, never a measurement detail *)
        Printf.eprintf "daisy: verification failed: %s\n" msg;
        (match flight with
        | Some f ->
          (match Obs.Flight.dump f ~reason:"mismatch" with
          | Some path -> Printf.eprintf "daisy: crash dump: %s\n" path
          | None -> ())
        | None -> ());
        exit 3
      | Guard.Supervise.Terminated ->
        Printf.eprintf "daisy: SIGTERM at a commit boundary; checkpoint %s\n"
          (match guard.g_checkpoint_dir with Some d -> "written to " ^ d
                                           | None -> "skipped");
        exit 143
    in
    (match tier2_pool with
    | Some pool ->
      Serve.Pool.drain pool;
      Serve.Pool.shutdown pool
    | None -> ());
    (match guard.g_console_out with
    | Some path -> with_out path (fun oc -> output_string oc r.console)
    | None -> ());
    (match (trace_out, tracer) with
    | Some path, Some tr ->
      (match trace_format with
      | `Chrome -> write_json path (Obs.Trace.to_chrome tr)
      | `Jsonl -> with_out path (fun oc -> Obs.Trace.to_jsonl tr oc));
      if Obs.Trace.dropped tr > 0 then
        Printf.eprintf
          "warning: trace ring dropped %d early events (raise --trace-cap)\n"
          (Obs.Trace.dropped tr)
    | _ -> ());
    (match (metrics_out, metrics) with
    | Some path, Some m ->
      Obs.Bridge.record_result m r;
      write_json path (Obs.Metrics.to_json m)
    | _ -> ());
    Printf.printf "workload:             %s\n" r.Vmm.Run.name;
    Printf.printf "exit code:            %s\n"
      (match r.exit_code with Some c -> string_of_int c | None -> "(fuel)");
    Printf.printf "base instructions:    %d (static %d, reuse %d)\n" r.base_insns
      r.static_insns (r.base_insns / max 1 r.static_insns);
    Printf.printf "tree VLIWs executed:  %d (+%d interpreted instructions)\n"
      r.vliws r.interp_insns;
    Printf.printf "ILP (infinite cache): %.2f\n" r.ilp_inf;
    if finite then Printf.printf "ILP (finite cache):   %.2f (%d stall cycles)\n" r.ilp_fin r.stall_cycles;
    Printf.printf "loads/stores:         %d / %d\n" r.loads r.stores;
    Printf.printf "cross-page branches:  %d direct, %d via LR, %d via CTR\n"
      r.stats.cross_direct r.stats.cross_lr r.stats.cross_ctr;
    Printf.printf "alias recoveries:     %d (adaptive retranslations %d)\n"
      r.stats.aliases r.stats.adaptive_retranslations;
    Printf.printf "translation:          %d pages, %d entries, %d ins scheduled, %d VLIWs, %d code bytes\n"
      r.totals.pages r.totals.entry_points r.totals.insns r.totals.vliws_made
      r.code_bytes;
    (match tcache_dir with
    | None -> ()
    | Some _ ->
      let s = r.stats in
      Printf.printf
        "tcache:               %d hits, %d misses, %d persists, %d evicts, \
         %d corrupt, %d skipped\n"
        s.tcache_hits s.tcache_misses s.tcache_persists s.tcache_evicts
        s.tcache_corrupt s.tcache_skipped);
    (if tier2.t2_enable then
       let s = r.stats in
       Printf.printf
         "tier-2:               %d promotions (%.1f ms compile), %d deopts, \
          %d region entries, %d region VLIWs, %d off-region exits\n"
         s.tier2_promotions
         (s.tier2_compile_seconds *. 1000.)
         s.tier2_deopts s.tier2_entries s.tier2_vliws s.tier2_offregion_exits);
    (match inject with
    | None -> ()
    | Some i -> Printf.printf "%s\n" (Fault.Inject.report i));
    (let s = r.stats in
     if supervised || s.checkpoints_written > 0 then
       Printf.printf
         "guard:                %d checkpoints (%.1f ms), %d deadline hits, \
          %d shadow checks, %d divergences\n"
         s.checkpoints_written (s.checkpoint_seconds *. 1000.) s.deadline_hits
         s.shadow_checked s.shadow_divergences);
    (match profile with
    | Some p -> Obs.Profile.flush p ~vliws_total:r.vliws
    | None -> ());
    (match (pstore, profile) with
    | Some store, Some p ->
      let merged, bytes = Obs.Pstore.accumulate store p in
      Printf.printf
        "profile:              %d pages, %d edge traversals over %d run(s) \
         -> %s (%d bytes)\n"
        (Hashtbl.length merged.Obs.Profile.pages)
        (Obs.Profile.total_edges merged) merged.runs (Obs.Pstore.path store)
        bytes
    | _ -> ());
    (match flight with
    | Some f ->
      List.iter
        (fun (reason, path) ->
          Printf.printf "crash dump:           %s (%s)\n" path reason)
        (Obs.Flight.dumps f)
    | None -> ());
    let s = r.stats in
    if Vmm.Run.degraded s then begin
      Printf.printf
        "degraded:             %d translator faults, %d exec faults, \
         %d quarantines, %d retries, %d pages pinned to interpretation\n"
        s.translator_faults s.exec_faults s.quarantines s.degrade_retries
        s.interp_pinned;
      (* verified bit-exact, but only by falling down the ladder *)
      exit 4
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ w $ params_term $ finite $ trace_out
          $ trace_format $ trace_cap $ metrics_out $ tcache_dir $ profile_dir
          $ crash_dump_dir $ no_flight $ flight_cap $ fault_term $ guard_term
          $ tier2_term)

let resume_cmd =
  let doc =
    "Resume a checkpointed run.  Restores the newest valid snapshot \
     sequence from DIR, continues execution from its precise commit \
     boundary, keeps checkpointing into the same directory, and performs \
     the same end-to-end differential verification as $(b,daisy run) — \
     console output and exit code are bit-identical to the uninterrupted \
     run.  Translation parameters must match the original run's \
     (pass the same flags); the snapshot's fingerprint is checked."
  in
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let console_out =
    Arg.(value & opt (some string) None
         & info [ "console-out" ] ~docv:"FILE"
             ~doc:"Write the guest console output to $(docv).")
  in
  let run dir params console_out tier2 =
    match Guard.Checkpoint.load ~dir () with
    | None ->
      Printf.eprintf "daisy: no usable checkpoint in %s\n" dir;
      exit 1
    | Some loaded ->
      let snap = loaded.Guard.Checkpoint.last in
      let w =
        match Workloads.Registry.by_name snap.s_workload with
        | w -> w
        | exception Invalid_argument _ ->
          Printf.eprintf "daisy: checkpoint is for unknown workload %S\n"
            snap.s_workload;
          exit 1
      in
      if loaded.dropped > 0 then
        Printf.eprintf
          "warning: ignored %d trailing corrupt/unreadable snapshot file(s)\n"
          loaded.dropped;
      Guard.Supervise.install_sigterm ();
      let r =
        try
          Vmm.Run.run ~params
            ~prepare:(fun vmm ->
              (* restore first, then attach the supervisor: the
                 checkpointer's cadence baseline must be the restored
                 clock, not zero, or the first boundary would snapshot
                 again immediately *)
              let pc, consumed = Guard.Checkpoint.restore_into loaded vmm in
              ignore
                (Guard.Supervise.attach ~checkpoint_dir:dir
                   ~checkpoint_every:snap.s_every
                   ~checkpoint_seq:(snap.s_seq + 1) ~workload:w.name vmm);
              (* promotion is transparent, so a resumed run needs no
                 tier-2 state from the interrupted one; re-attaching
                 simply lets the continuation climb back to tier 2.
                 Compiles stay synchronous: resume is a recovery path,
                 determinism beats latency here. *)
              (match tier2_config tier2 ~submit:None with
              | Some cfg -> ignore (Obs.Tier.attach ~cfg vmm)
              | None -> ());
              Some (pc, max 1 ((w.fuel * 2) - consumed)))
            w
        with
        | Vmm.Run.Mismatch msg ->
          Printf.eprintf "daisy: verification failed: %s\n" msg;
          exit 3
        | Guard.Checkpoint.Incompatible msg ->
          Printf.eprintf "daisy: %s\n" msg;
          exit 1
        | Guard.Supervise.Terminated ->
          Printf.eprintf
            "daisy: SIGTERM at a commit boundary; checkpoint written to %s\n"
            dir;
          exit 143
      in
      (match console_out with
      | Some path -> with_out path (fun oc -> output_string oc r.console)
      | None -> ());
      Printf.printf "workload:             %s (resumed from %s, snapshot %d)\n"
        r.Vmm.Run.name dir (snap.s_seq);
      Printf.printf "exit code:            %s\n"
        (match r.exit_code with Some c -> string_of_int c | None -> "(fuel)");
      let s = r.stats in
      Printf.printf "tree VLIWs executed:  %d (+%d interpreted instructions)\n"
        s.vliws s.interp_insns;
      if tier2.t2_enable then
        Printf.printf
          "tier-2:               %d promotions (%.1f ms compile), %d deopts, \
           %d region entries, %d region VLIWs, %d off-region exits\n"
          s.tier2_promotions
          (s.tier2_compile_seconds *. 1000.)
          s.tier2_deopts s.tier2_entries s.tier2_vliws s.tier2_offregion_exits;
      Printf.printf
        "guard:                %d checkpoints (%.1f ms), %d deadline hits, \
         %d shadow checks, %d divergences\n"
        s.checkpoints_written (s.checkpoint_seconds *. 1000.) s.deadline_hits
        s.shadow_checked s.shadow_divergences;
      if Vmm.Run.degraded s then begin
        Printf.printf
          "degraded:             %d translator faults, %d exec faults, \
           %d quarantines, %d retries, %d pages pinned to interpretation\n"
          s.translator_faults s.exec_faults s.quarantines s.degrade_retries
          s.interp_pinned;
        exit 4
      end
  in
  Cmd.v (Cmd.info "resume" ~doc)
    Term.(const run $ dir $ params_term $ console_out $ tier2_term)

let profile_cmd =
  let doc =
    "Profile a workload under DAISY: per-page hotness, the weighted \
     cross-page edge graph, and the hot regions (inter-page cycles) that \
     are tier-2 promotion candidates.  With --profile-dir, reads the \
     accumulated persistent profile when one exists instead of running."
  in
  let finite =
    Arg.(value & flag
         & info [ "finite" ] ~doc:"Attach the paper's 24-issue cache hierarchy.")
  in
  let top =
    Arg.(value & opt int 20
         & info [ "top" ] ~docv:"N"
             ~doc:"Show the $(docv) hottest pages (and, with \
                   $(b,--regions), the $(docv) hottest regions).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the full profile (pages, edges, regions) as \
                   JSON to $(docv).")
  in
  let regions =
    Arg.(value & flag
         & info [ "regions" ]
             ~doc:"Report hot cross-page regions (cycles in the edge graph \
                   over the heat threshold) with their edge weights.")
  in
  let threshold =
    Arg.(value & opt int 2
         & info [ "threshold" ] ~docv:"N"
             ~doc:"Heat threshold: only edges traversed at least $(docv) \
                   times participate in region detection.")
  in
  let flame =
    Arg.(value & opt (some string) None
         & info [ "flame" ] ~docv:"FILE"
             ~doc:"Write a collapsed-stack (folded) flamegraph of page heat \
                   grouped by region to $(docv).")
  in
  let profile_dir =
    Arg.(value & opt (some string) None
         & info [ "profile-dir" ] ~docv:"DIR"
             ~doc:"Persistent profile store: report the accumulated entry \
                   for this workload if present, otherwise run once and \
                   accumulate the result.")
  in
  let report (w : Workloads.Wl.t) params finite top json_out regions_flag
      threshold flame profile_dir =
    if threshold <= 0 then begin
      Printf.eprintf "daisy: --threshold must be positive\n";
      exit 2
    end;
    Option.iter (check_writable_dir "--profile-dir") profile_dir;
    let page_size = params.Params.page_size in
    let store =
      Option.map (fun dir -> profile_store w ~dir ~page_size) profile_dir
    in
    let stored =
      match store with
      | None -> None
      | Some s -> (
        match Obs.Pstore.load s with
        | `Hit p -> Some p
        | `Miss -> None
        | `Corrupt msg | `Skipped msg ->
          Printf.eprintf
            "warning: stored profile unusable (%s); profiling afresh\n" msg;
          None)
    in
    let p, source =
      match stored with
      | Some p ->
        ( p,
          Printf.sprintf "%d accumulated run(s) from %s" p.Obs.Profile.runs
            (Option.get profile_dir) )
      | None ->
        let hierarchy =
          if finite then Some (Memsys.Hierarchy.paper_24issue ()) else None
        in
        let profile = Obs.Profile.create ~page_size () in
        let bridge = Obs.Bridge.create ~profile () in
        let r =
          Vmm.Run.run ~params ?hierarchy
            ~instrument:(fun vmm -> Obs.Bridge.attach bridge vmm) w
        in
        Obs.Profile.flush profile ~vliws_total:r.vliws;
        (match store with
        | Some s -> ignore (Obs.Pstore.accumulate s profile)
        | None -> ());
        ( profile,
          Printf.sprintf "fresh run (%d VLIWs, +%d interpreted)" r.vliws
            r.interp_insns )
    in
    (match json_out with
    | Some path -> write_json path (Obs.Profile.to_json ~threshold p)
    | None -> ());
    (match flame with
    | Some path ->
      with_out path (fun oc ->
          output_string oc (Obs.Profile.to_collapsed ~threshold p))
    | None -> ());
    Printf.printf "workload:            %s\n" w.name;
    Printf.printf "profile source:      %s\n" source;
    Printf.printf "page entries:        %d across %d pages\n"
      (Obs.Profile.total_entries p)
      (Hashtbl.length p.Obs.Profile.pages);
    Printf.printf "cross-page edges:    %d traversals over %d distinct edges\n"
      (Obs.Profile.total_edges p)
      (Hashtbl.length p.Obs.Profile.edges);
    let ranked = Obs.Profile.pages_ranked p in
    let shown = List.filteri (fun i _ -> i < top) ranked in
    Stats.Table.render
      ~title:(Printf.sprintf "Hottest pages (%d of %d)"
                (List.length shown) (List.length ranked))
      ~header:[ "page"; "entries"; "vliws"; "interp"; "xlates"; "insns";
                "bytes"; "vliws/insn" ]
      (List.map
         (fun (q : Obs.Profile.page) ->
           [ Printf.sprintf "0x%08x" q.base;
             Stats.Table.i q.entries;
             Stats.Table.big q.vliws;
             Stats.Table.i q.interp_insns;
             Stats.Table.i q.translations;
             Stats.Table.i q.insns_scheduled;
             Stats.Table.i q.code_bytes;
             Stats.Table.f1
               (float_of_int q.vliws
               /. float_of_int (max 1 q.insns_scheduled)) ])
         shown);
    if regions_flag then begin
      let rs = Obs.Profile.regions ~threshold p in
      if rs = [] then
        Printf.printf
          "\nNo cross-page regions at threshold %d: no page cycle's edges \
           were all traversed that often.\n"
          threshold
      else begin
        let shown = List.filteri (fun i _ -> i < top) rs in
        Printf.printf
          "\nHot regions (%d of %d; tier-2 promotion candidates; edges >= \
           %d traversals):\n"
          (List.length shown) (List.length rs) threshold;
        let cfg = Obs.Tier.default in
        List.iter
          (fun (r : Obs.Profile.region) ->
            let verdict =
              match Obs.Tier.verdict ~cfg r with
              | Ok heat -> Printf.sprintf "PROMOTE (heat %d)" heat
              | Error reason -> Printf.sprintf "skip: %s" reason
            in
            Printf.printf
              "  R%d: %d pages [%s]  %d internal traversals, %d cycles, \
               %d entries  -> %s\n"
              r.id (List.length r.rpages)
              (String.concat " "
                 (List.map (Printf.sprintf "0x%x") r.rpages))
              r.internal_weight r.region_vliws r.region_entries verdict;
            List.iter
              (fun (s, d, k, c) ->
                Printf.printf "      0x%x -> 0x%x  %-6s %d\n" s d
                  (Obs.Profile.edge_kind_string k)
                  c)
              r.redges)
          shown
      end
    end
  in
  let merge ~into srcs =
    (match into with
    | None ->
      Printf.eprintf "daisy: profile merge requires --into DIR\n";
      exit 2
    | Some _ -> ());
    let into = Option.get into in
    (match srcs with
    | [] ->
      Printf.eprintf "daisy: profile merge requires at least one SRC dir\n";
      exit 2
    | _ -> ());
    check_writable_dir "--into" into;
    let merged, skipped = Obs.Pstore.merge_dirs ~into srcs in
    Printf.printf "merged %d profile entrie(s) into %s (%d file(s) skipped)\n"
      merged into skipped
  in
  (* [daisy profile WORKLOAD ...] reports; [daisy profile merge --into DIR
     SRC...] combines stores from a fleet of runs.  The dispatch is on the
     first positional so the common report form needs no subcommand. *)
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD|merge"
             ~doc:"A workload name to profile, or $(b,merge) to combine \
                   profile directories ($(b,--into) DIR SRC...).")
  in
  let rest = Arg.(value & pos_right 0 string [] & info [] ~docv:"SRC") in
  let into =
    Arg.(value & opt (some string) None
         & info [ "into" ] ~docv:"DIR"
             ~doc:"($(b,merge)) destination store; created if missing.")
  in
  let dispatch target rest into params finite top json_out regions_flag
      threshold flame profile_dir =
    if target = "merge" then merge ~into rest
    else
      match Workloads.Registry.by_name target with
      | w ->
        if rest <> [] then begin
          Printf.eprintf "daisy: unexpected arguments after %s\n" target;
          exit 2
        end;
        report w params finite top json_out regions_flag threshold flame
          profile_dir
      | exception Invalid_argument m ->
        Printf.eprintf "daisy: %s\n" m;
        exit 2
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const dispatch $ target $ rest $ into $ params_term $ finite $ top
          $ json_out $ regions $ threshold $ flame $ profile_dir)

let trees_cmd =
  let doc = "Translate a workload's entry page and print its tree VLIWs." in
  let w = Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD") in
  let run (w : Workloads.Wl.t) params =
    let mem, entry = Workloads.Wl.instantiate w in
    let tr = Translator.Translate.create params mem in
    let page, _ = Translator.Translate.entry tr entry in
    Vec.iter (fun v -> Format.printf "%a@." Vliw.Tree.pp v) page.vliws
  in
  Cmd.v (Cmd.info "trees" ~doc) Term.(const run $ w $ params_term)

let experiments_cmd =
  let doc = "Regenerate the paper's tables and figures (all, or by id)." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run = function
    | [] -> Stats.Experiments.all ()
    | ids ->
      List.iter
        (fun id ->
          match id with
          | "t5.1" -> Stats.Experiments.table_5_1 ()
          | "f5.1" -> Stats.Experiments.figure_5_1 ()
          | "t5.2" -> Stats.Experiments.table_5_2 ()
          | "t5.3" -> Stats.Experiments.table_5_3 ()
          | "t5.4" -> Stats.Experiments.table_5_4 ()
          | "f5.2" -> Stats.Experiments.figure_5_2 ()
          | "t5.5" -> Stats.Experiments.table_5_5 ()
          | "t5.6" -> Stats.Experiments.table_5_6 ()
          | "t5.7" -> Stats.Experiments.table_5_7 ()
          | "f5.3" -> Stats.Experiments.figure_5_3 ()
          | "f5.4" -> Stats.Experiments.figure_5_4 ()
          | "f5.5" -> Stats.Experiments.figure_5_5 ()
          | "t5.8" -> Stats.Experiments.table_5_8 ()
          | "t5.9" -> Stats.Experiments.table_5_9 ()
          | "oracle" -> Stats.Experiments.oracle ()
          | "ablations" -> Stats.Experiments.ablations ()
          | "s390" -> Stats.Experiments.s390_retarget ()
          | other -> Printf.eprintf "unknown experiment id %S\n" other)
        ids
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ ids)

let ladder_cmd =
  let doc = "Print the parallelism ladder for a workload (Chapter 6)." in
  let w = Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD") in
  let run (w : Workloads.Wl.t) =
    let inorder = Baseline.Inorder.run w in
    Printf.printf "%-36s %6.2f\n" "in-order base machine" inorder.ipc;
    let big = Vmm.Run.run w in
    Printf.printf "%-36s %6.2f\n" "DAISY 24-issue" big.ilp_inf;
    let trad = Vmm.Run.run ~params:(Baseline.Tradcomp.params w) w in
    Printf.printf "%-36s %6.2f\n" "traditional VLIW compiler" trad.ilp_inf;
    let oracle = Baseline.Oracle.run w in
    Printf.printf "%-36s %6.2f\n" "oracle" oracle.ilp
  in
  Cmd.v (Cmd.info "ladder" ~doc) Term.(const run $ w)

let tcache_cmd =
  let doc = "Inspect or clear a persistent translation cache directory." in
  (* a plain string, not [Arg.dir]: a missing or never-populated cache
     directory is an empty cache, not a usage error — every subcommand
     reports an empty summary and exits 0 *)
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let stats_cmd =
    let doc = "Summarise the entries in a cache directory." in
    let run dir =
      let infos = Tcache.Store.list_dir dir in
      let ok, bad =
        List.partition
          (fun (i : Tcache.Store.info) -> i.status = `Ok)
          infos
      in
      let sum f = List.fold_left (fun acc i -> acc + f i) 0 ok in
      let configs =
        List.sort_uniq compare
          (List.map
             (fun (i : Tcache.Store.info) -> (i.frontend, i.fingerprint))
             ok)
      in
      Printf.printf "entries:       %d (%d corrupt)\n" (List.length infos)
        (List.length bad);
      (* pages and tier-2 region images are different beasts (a region
         is one superblock-scheduled image over several member pages),
         so the summary keeps their counts and footprints apart *)
      let pages, regions =
        List.partition (fun (i : Tcache.Store.info) -> i.kind = `Page) ok
      in
      let bytes_of l =
        List.fold_left
          (fun n (i : Tcache.Store.info) -> n + i.file_bytes)
          0 l
      in
      Printf.printf "  pages:       %d (%d bytes)\n" (List.length pages)
        (bytes_of pages);
      Printf.printf "  regions:     %d (%d bytes, %d member pages)\n"
        (List.length regions) (bytes_of regions)
        (List.fold_left
           (fun n (i : Tcache.Store.info) -> n + Array.length i.members)
           0 regions);
      Printf.printf "file bytes:    %d\n"
        (sum (fun (i : Tcache.Store.info) -> i.file_bytes));
      Printf.printf "tree VLIWs:    %d\n"
        (sum (fun (i : Tcache.Store.info) -> i.vliws));
      Printf.printf "entry points:  %d\n"
        (sum (fun (i : Tcache.Store.info) -> i.entries));
      Printf.printf "configurations:%d\n" (List.length configs);
      List.iter
        (fun (fe, fp) -> Printf.printf "  %s  %s\n" fe fp)
        configs;
      (* per-frontend entry counts: a shared directory serves several
         guest ISAs side by side, and the budget squeezes them all *)
      let frontends =
        List.sort_uniq compare
          (List.map (fun (i : Tcache.Store.info) -> i.frontend) ok)
      in
      List.iter
        (fun fe ->
          let mine =
            List.filter (fun (i : Tcache.Store.info) -> i.frontend = fe) ok
          in
          Printf.printf "  frontend %-6s %d entries, %d bytes\n" fe
            (List.length mine)
            (List.fold_left
               (fun n (i : Tcache.Store.info) -> n + i.file_bytes)
               0 mine))
        frontends;
      (* LRU ages (now - mtime; a probe hit refreshes mtime), so the
         operator can see what the eviction budget would take next *)
      if ok <> [] then begin
        let now = Unix.time () in
        let bounds =
          [ (60., "<1m"); (600., "<10m"); (3600., "<1h"); (86400., "<1d") ]
        in
        let counts = Array.make (List.length bounds + 1) 0 in
        List.iter
          (fun (i : Tcache.Store.info) ->
            let age = max 0. (now -. i.mtime) in
            let rec place k = function
              | (b, _) :: rest -> if age <= b then k else place (k + 1) rest
              | [] -> k
            in
            let k = place 0 bounds in
            counts.(k) <- counts.(k) + 1)
          ok;
        Printf.printf "LRU ages:      %s\n"
          (String.concat "  "
             (List.mapi
                (fun k (_, label) ->
                  Printf.sprintf "%s:%d" label counts.(k))
                bounds
             @ [ Printf.sprintf "older:%d" counts.(List.length bounds) ]))
      end;
      List.iter
        (fun (i : Tcache.Store.info) ->
          match i.status with
          | `Corrupt reason -> Printf.printf "corrupt: %s (%s)\n" i.key reason
          | `Skipped reason -> Printf.printf "skipped: %s (%s)\n" i.key reason
          | `Ok -> ())
        bad;
      (* the storage-health footer: torn entries, quarantine corpses
         and dead writers' temp files are exactly what `daisy fsck`
         walks — report the counts here instead of silently skipping,
         so an operator reading stats sees a sick tree immediately *)
      Printf.printf "degraded:      %d torn entries (run `daisy fsck` to repair)\n"
        (List.length bad);
      Printf.printf
        "quarantined:   %d (corrupt entries set aside as .dtc.bad)\n"
        (List.length (Tcache.Store.quarantined_files dir));
      Printf.printf
        "orphaned:      %d (temp files from dead writers, swept at open)\n"
        (List.length (Tcache.Store.orphan_files dir));
      Printf.printf "stray files:   %d (not cache entries, left alone)\n"
        (List.length (Tcache.Store.stray_files dir))
    in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ dir)
  in
  let ls_cmd =
    let doc = "List every cache entry with its decoded header." in
    let run dir =
      List.iter
        (fun (i : Tcache.Store.info) ->
          match i.status with
          | `Ok ->
            let where =
              match i.kind with
              | `Page -> Printf.sprintf "base=0x%08x" i.base
              | `Region ->
                Printf.sprintf "region[%s]"
                  (String.concat ","
                     (List.map (Printf.sprintf "0x%x")
                        (Array.to_list i.members)))
            in
            Printf.printf
              "%s  %-4s %s psize=%-7d vliws=%-5d entries=%-4d %7dB%s\n"
              i.key i.frontend where i.psize i.vliws i.entries i.file_bytes
              (if i.spec_inhibited then "  spec-off" else "")
          | `Corrupt reason -> Printf.printf "%s  CORRUPT: %s\n" i.key reason
          | `Skipped reason -> Printf.printf "%s  SKIPPED: %s\n" i.key reason)
        (Tcache.Store.list_dir dir)
    in
    Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ dir)
  in
  let clear_cmd =
    let doc = "Remove every cache entry (and stray temp file) in DIR." in
    let run dir =
      let removed, skipped = Tcache.Store.clear_dir dir in
      Printf.printf "removed %d files (%d skipped)\n" removed skipped
    in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ dir)
  in
  Cmd.group (Cmd.info "tcache" ~doc) [ stats_cmd; ls_cmd; clear_cmd ]

let fsck_cmd =
  let doc =
    "Walk the durable stores (tcache, profiles, checkpoints, crash \
     dumps), report torn entries and orphaned temp files, and \
     optionally repair them."
  in
  let dir_opt name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let tc = dir_opt "tcache" "DIR" "Translation cache directory to check." in
  let pd = dir_opt "profile-dir" "DIR" "Profile store directory to check." in
  let ck = dir_opt "checkpoint-dir" "DIR" "Checkpoint directory to check." in
  let cd =
    dir_opt "crash-dump-dir" "DIR" "Flight-recorder dump directory to check."
  in
  let repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:
               "Set torn entries aside as .bad (bytes kept for the \
                post-mortem) and remove orphaned temp files.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"PATH"
             ~doc:"Also write the report as JSON to $(docv).")
  in
  let run tc pd ck cd repair json_out =
    match (tc, pd, ck, cd) with
    | None, None, None, None ->
      prerr_endline
        "fsck: name at least one store (--tcache, --profile-dir, \
         --checkpoint-dir, --crash-dump-dir)";
      exit 2
    | _ ->
      let reports =
        Guard.Fsck.run ~repair ?tcache_dir:tc ?profile_dir:pd
          ?checkpoint_dir:ck ?crash_dir:cd ()
      in
      List.iter
        (fun r -> Format.printf "@[<v>%a@]@." Guard.Fsck.pp r)
        reports;
      (match json_out with
      | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Json.to_string (Guard.Fsck.to_json reports));
        close_out oc
      | None -> ());
      if Guard.Fsck.all_clean reports then print_endline "fsck: clean"
      else begin
        Printf.printf "fsck: %d issues remain%s\n"
          (List.fold_left (fun n r -> n + Guard.Fsck.issues r) 0
             (List.filter (fun r -> not (Guard.Fsck.clean r)) reports))
          (if repair then "" else " (re-run with --repair)");
        exit 1
      end
  in
  Cmd.v (Cmd.info "fsck" ~doc)
    Term.(const run $ tc $ pd $ ck $ cd $ repair $ json_out)

let socket_arg =
  Arg.(value
       & opt string (Filename.concat (Filename.get_temp_dir_name ())
                       "daisy-serve.sock")
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let doc =
    "Serve guest sessions as a multi-tenant daemon over one shared \
     translation cache.  Each session is a full differentially-verified \
     run with its own memory image and VMM; sessions execute \
     concurrently on a bounded pool of OCaml domains and share only the \
     cache directory, where a per-key translate gate coalesces \
     cold-cache storms and an optional byte budget casts out \
     least-recently-used entries (never pages pinned hot by a live \
     session).  Stop it with $(b,daisy client shutdown)."
  in
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains" ] ~docv:"N"
             ~doc:"Size of the session domain pool (concurrent guests).")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"BYTES"
             ~doc:"Entry-byte budget for the shared cache directory; \
                   exceeding it evicts least-recently-used unpinned \
                   entries as sessions finish.")
  in
  let checkpoint_root =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-root" ] ~docv:"DIR"
             ~doc:"Give each session its own checkpoint directory \
                   $(docv)/session-<id>.")
  in
  let queue_cap =
    Arg.(value & opt (some int) None
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bound the pool's submit queue at $(docv) waiting \
                   sessions; past it the daemon sheds load with \
                   $(b,ERR busy <retry_after_ms>) instead of queueing \
                   without limit.")
  in
  let chaos_cocktail =
    Arg.(value & flag
         & info [ "chaos-cocktail" ]
             ~doc:"Attach the seeded fault-injection cocktail \
                   (translator crashes, bit-flips, cache poisoning, \
                   interrupts, fault storms) to every session.  For \
                   hardening runs: the daemon must absorb all of it.")
  in
  let chaos_seed =
    Arg.(value & opt int 0xDA15
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Base seed for --chaos-cocktail; each session derives \
                   its own injector seed from $(docv) and its id, so a \
                   fleet is reproducible.")
  in
  let chaos_storage =
    Arg.(value & flag
         & info [ "chaos-storage" ]
             ~doc:"Run every session's translation cache on a seeded \
                   disk-fault backend (ENOSPC, EIO, short writes, torn \
                   renames).  Sessions must degrade to in-memory \
                   overlays, never crash or mismatch; HEALTH reports \
                   storage_injected / tcache_degraded / storage_faults.")
  in
  let run dir socket_path domains budget checkpoint_root queue_cap
      chaos_cocktail chaos_seed chaos_storage params tier2 =
    if domains <= 0 then begin
      Printf.eprintf "daisy serve: --domains must be positive\n";
      exit 2
    end;
    (match queue_cap with
    | Some c when c < 0 ->
      Printf.eprintf "daisy serve: --queue-cap must be >= 0\n";
      exit 2
    | _ -> ());
    check_writable_dir "cache" dir;
    Option.iter (check_writable_dir "--checkpoint-root") checkpoint_root;
    let session_instrument =
      if not chaos_cocktail then None
      else
        Some
          (fun ~id vmm ->
            Fault.Inject.attach
              (Fault.Inject.create
                 { Fault.Inject.cocktail with
                   seed = chaos_seed + (id * 0x9E3779B9) })
              vmm)
    in
    Printf.printf "daisy serve: cache %s, %d domains, socket %s%s%s\n%!" dir
      domains socket_path
      (if chaos_cocktail then
         Printf.sprintf " (chaos cocktail, seed %#x)" chaos_seed
       else "")
      (if chaos_storage then
         Printf.sprintf " (storage faults, seed %#x)" chaos_seed
       else "");
    (* sessions already run on pool domains, so each session's tier-2
       compiles stay synchronous on its own domain *)
    let tier2 = tier2_config tier2 ~submit:None in
    let storage =
      if chaos_storage then
        Some { Fsio.storage_cocktail with seed = chaos_seed }
      else None
    in
    match
      Serve.Server.serve ~params ?budget ?checkpoint_root ~domains
        ?queue_cap ?session_instrument ?tier2 ?storage
        ~ignore_mem:
          (if chaos_cocktail then [ Workloads.Wl.interrupt_count_addr ]
           else [])
        ~socket_path ~dir ()
    with
    | sessions ->
      Printf.printf "daisy serve: shut down after %d sessions\n" sessions
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "daisy serve: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ dir $ socket_arg $ domains $ budget $ checkpoint_root
          $ queue_cap $ chaos_cocktail $ chaos_seed $ chaos_storage
          $ params_term $ tier2_term)

let client_cmd =
  let doc =
    "Drive a running $(b,daisy serve) daemon.  COMMAND is one of \
     $(b,ping), $(b,run) $(i,WORKLOAD) [$(i,DEADLINE_MS)], $(b,fleet) \
     $(i,N) $(i,WORKLOAD..) [$(i,DEADLINE_MS)], $(b,stats), \
     $(b,health), $(b,shutdown).  Prints the daemon's JSON reply.  \
     Exit codes distinguish the failure planes: 0 on an OK reply, 3 on \
     a daemon-reported $(b,ERR) reply (deadline, mismatch, busy after \
     retries, ...), 4 when no daemon answers (connect refused, hung \
     up), 2 on a protocol violation or a malformed request."
  in
  let words =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"COMMAND")
  in
  let wait =
    Arg.(value & opt float 0.
         & info [ "wait-ready" ] ~docv:"SECONDS"
             ~doc:"Poll the daemon up to $(docv) before sending, for \
                   scripts that just forked it.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry the request up to $(docv) extra times under \
                   jittered exponential backoff when the daemon sheds \
                   it ($(b,ERR busy), honoring the server's \
                   retry_after_ms hint) or is unreachable.")
  in
  let run socket_path wait retries words =
    let req =
      match words with
      | cmd :: rest ->
        String.concat " " (String.uppercase_ascii cmd :: rest)
      | [] -> assert false  (* non_empty *)
    in
    if retries < 0 then begin
      Printf.eprintf "daisy client: --retries must be >= 0\n";
      exit 2
    end;
    if wait > 0. && not (Serve.Client.wait_ready ~timeout:wait ~socket_path ())
    then begin
      Printf.eprintf "daisy client: daemon at %s not ready after %.1fs\n"
        socket_path wait;
      exit 4
    end;
    let send () =
      if retries = 0 then Serve.Client.request ~socket_path req
      else
        Serve.Client.request_retry
          ~policy:{ Serve.Retry.default with attempts = retries + 1 }
          ~socket_path req
    in
    match send () with
    | Serve.Client.Ok_json payload ->
      if payload <> "" then print_endline payload
    | Serve.Client.Err { cls; detail } ->
      Printf.eprintf "daisy client: ERR %s %s\n" cls detail;
      exit 3
    | exception Serve.Client.Unreachable msg ->
      Printf.eprintf "daisy client: %s\n" msg;
      exit 4
    | exception Serve.Client.Protocol msg ->
      Printf.eprintf "daisy client: %s\n" msg;
      exit 2
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ wait $ retries $ words)

let fuzz_cmd =
  let doc =
    "Differentially fuzz the VMM against the reference interpreter: run \
     randomly generated (seeded, reproducible) pages on both and compare \
     final state, memory and console output bit-for-bit.  Mismatches are \
     shrunk to minimal reproducers on disk.  Combine with the --fault-* \
     flags to fuzz under fault injection."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Corpus seed.")
  in
  let pages =
    Arg.(value & opt int 100
         & info [ "pages" ] ~docv:"N" ~doc:"Number of generated pages.")
  in
  let insns =
    Arg.(value & opt int 96
         & info [ "insns" ] ~docv:"N" ~doc:"Generated slots per page.")
  in
  let fuel =
    Arg.(value & opt int 100_000
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Base-instruction budget per page (the reference running \
                   out of fuel counts as a hang, not a failure).")
  in
  let out =
    Arg.(value & opt string "fuzz-failures"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk reproducer files.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-run one reproducer file instead of generating a corpus.")
  in
  let shadow_sample =
    Arg.(value & opt float 0.
         & info [ "shadow-sample" ] ~docv:"RATE"
             ~doc:"Also shadow-verify this fraction of committed packets in \
                   every fuzzed VMM run (1.0 = every packet); caught \
                   divergences are repaired in place, so the verdicts are \
                   unchanged — the count is reported at the end.")
  in
  let no_flight =
    Arg.(value & flag
         & info [ "no-flight" ]
             ~doc:"Disable the flight recorder (no crash dumps on mismatch).")
  in
  let crash_dump_dir =
    Arg.(value & opt string "daisy-crash"
         & info [ "crash-dump-dir" ] ~docv:"DIR"
             ~doc:"Where the flight recorder writes one crash dump per \
                   mismatching page.")
  in
  let fault_storage =
    Arg.(value & flag
         & info [ "fault-storage" ]
             ~doc:"Also run every page against a persistent translation \
                   cache on a seeded disk-fault backend (ENOSPC, EIO, \
                   short writes, torn renames).  The verdicts must not \
                   change: a lying disk may cost retranslation, never \
                   correctness.")
  in
  let run seed pages insns fuel out replay shadow_sample no_flight
      crash_dump_dir fault_storage faults =
    let storage_dir =
      if not fault_storage then None
      else begin
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "daisy-fuzz-tcache-%d" (Unix.getpid ()))
        in
        Tcache.Store.mkdir_p dir;
        Some dir
      end
    in
    let storage =
      Option.map
        (fun dir -> (dir, { Fsio.storage_cocktail with seed }))
        storage_dir
    in
    let rec rm_rf path =
      match Sys.is_directory path with
      | true ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        (try Sys.rmdir path with Sys_error _ -> ())
      | false -> ( try Sys.remove path with Sys_error _ -> ())
      | exception Sys_error _ -> ()
    in
    let cleanup_storage () = Option.iter rm_rf storage_dir in
    let flight =
      if no_flight then None
      else Some (Obs.Flight.create ~dir:crash_dump_dir ())
    in
    let bridge =
      Option.map (fun flight -> Obs.Bridge.create ~flight ()) flight
    in
    let divergences = ref 0 in
    let attach_extra =
      match (bridge, shadow_sample > 0.) with
      | None, false -> None
      | _ ->
        Some
          (fun (vmm : Vmm.Monitor.t) ->
            (* bridge first (it overwrites the hook), then the shadow
               counter wrapper, which chains whatever is installed *)
            (match bridge with
            | Some b -> Obs.Bridge.attach b vmm
            | None -> ());
            if shadow_sample > 0. then begin
              ignore
                (Guard.Shadow.attach
                   { Guard.Shadow.default with sample = shadow_sample; seed }
                   vmm);
              let prev = vmm.event_hook in
              vmm.event_hook <-
                Some
                  (fun ev ->
                    (match ev with
                    | Vmm.Monitor.Shadow_divergence _ -> incr divergences
                    | _ -> ());
                    match prev with Some f -> f ev | None -> ())
            end)
    in
    let dump_crash reason =
      match flight with
      | Some f -> (
        match Obs.Flight.dump f ~reason with
        | Some path -> Printf.printf "crash dump: %s\n" path
        | None -> ())
      | None -> ()
    in
    let on_mismatch =
      Option.map
        (fun _ ~index ~message:(_ : string) ->
          dump_crash (Printf.sprintf "fuzz-%d" index))
        flight
    in
    let report_shadow () =
      if shadow_sample > 0. then
        Printf.printf "shadow: %d divergence(s) caught and repaired\n"
          !divergences
    in
    match replay with
    | Some path ->
      (match Fault.Fuzz.replay ?faults ?storage ?attach_extra path with
      | Match ->
        Printf.printf "%s: match\n" path;
        report_shadow ();
        cleanup_storage ()
      | Hang ->
        Printf.printf "%s: hang (reference out of fuel)\n" path;
        report_shadow ();
        cleanup_storage ()
      | Mismatch m ->
        Printf.printf "%s: MISMATCH: %s\n" path m;
        dump_crash "replay";
        cleanup_storage ();
        exit 3)
    | None ->
      let s =
        Fault.Fuzz.fuzz ?faults ?storage ?attach_extra ?on_mismatch
          ~out_dir:out ~insns ~fuel ~log:print_endline ~seed ~pages ()
      in
      Printf.printf "fuzz: %d pages, %d matched, %d hung, %d mismatched\n"
        s.pages s.matched s.hung s.mismatched;
      if fault_storage then
        Printf.printf "storage: %d disk fault(s) injected, verdicts held\n"
          s.storage_injected;
      report_shadow ();
      cleanup_storage ();
      if s.mismatched > 0 then exit 3
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed $ pages $ insns $ fuel $ out $ replay
          $ shadow_sample $ no_flight $ crash_dump_dir $ fault_storage
          $ fault_term)

let () =
  let doc = "DAISY: dynamic binary translation onto a tree-VLIW machine" in
  let info = Cmd.info "daisy" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; resume_cmd; profile_cmd; trees_cmd;
            experiments_cmd; ladder_cmd; tcache_cmd; fsck_cmd; serve_cmd;
            client_cmd; fuzz_cmd ]))
