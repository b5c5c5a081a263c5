(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Chapter 5 + the Chapter 6 oracle study), then
   measures the raw speed of the dynamic translator itself with
   Bechamel — the quantity behind the paper's "instructions needed to
   translate one instruction" overhead analysis (Section 5.1). *)

(* Returns (base instructions in the probed page, [(name, ns/run)]). *)
let translator_microbench () =
  print_newline ();
  print_endline "Translator micro-benchmarks (Bechamel)";
  print_endline "--------------------------------------";
  let open Bechamel in
  let w = Workloads.Registry.by_name "compress" in
  let mem, entry = Workloads.Wl.instantiate w in
  (* how many base instructions one cold page translation schedules *)
  let probe = Translator.Translate.create Translator.Params.default mem in
  ignore (Translator.Translate.entry probe entry);
  let insns = probe.totals.insns in
  let tests =
    Test.make_grouped ~name:"daisy"
      [ Test.make ~name:"translate-page"
          (Staged.stage (fun () ->
               let tr =
                 Translator.Translate.create Translator.Params.default mem
               in
               ignore (Translator.Translate.entry tr entry)));
        Test.make ~name:"interp-1k-insns"
          (Staged.stage (fun () ->
               let mem2, e2 = Workloads.Wl.instantiate w in
               let st = Ppc.Machine.create () in
               st.pc <- e2;
               let it = Ppc.Interp.create st mem2 in
               ignore (Ppc.Interp.run it ~fuel:1000))) ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) ->
        estimates := (name, est) :: !estimates;
        Printf.printf "%-28s %12.0f ns/run" name est;
        if name = "daisy/translate-page" then
          Printf.printf "  (%d base ins scheduled -> %.0f ns per base ins)"
            insns
            (est /. float_of_int insns);
        print_newline ()
      | _ -> ())
    results;
  (insns, !estimates)

(* Cold-vs-warm persistent-translation-cache series: run every registry
   workload twice against one fresh cache directory and record how much
   translation work the warm start avoided (all of it, when the cache
   behaves) and what each run cost in wall time. *)
let tcache_series () =
  print_newline ();
  print_endline "Persistent translation cache: cold vs warm";
  print_endline "------------------------------------------";
  let module J = Obs.Json in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_bench_tcache.%d" (Unix.getpid ()))
  in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let cold, cold_s = time (fun () -> Vmm.Run.run ~tcache_dir:dir w) in
        let warm, warm_s = time (fun () -> Vmm.Run.run ~tcache_dir:dir w) in
        Printf.printf
          "%-10s pages %3d -> %d   insns %6d -> %d   hits %3d   %.3fs -> %.3fs\n"
          w.name cold.pages_translated warm.pages_translated
          cold.insns_translated warm.insns_translated warm.stats.tcache_hits
          cold_s warm_s;
        J.Obj
          [ ("name", J.Str w.name);
            ("cold_pages_translated", J.Int cold.pages_translated);
            ("warm_pages_translated", J.Int warm.pages_translated);
            ("cold_insns_translated", J.Int cold.insns_translated);
            ("warm_insns_translated", J.Int warm.insns_translated);
            ("warm_tcache_hits", J.Int warm.stats.tcache_hits);
            ("cold_tcache_persists", J.Int cold.stats.tcache_persists);
            ("cold_seconds", J.Float cold_s);
            ("warm_seconds", J.Float warm_s) ])
      Workloads.Registry.all
  in
  let removed, _skipped = Tcache.Store.clear_dir dir in
  (try Sys.rmdir dir with Sys_error _ -> ());
  Printf.printf "(cache entries written and cleaned up: %d)\n" removed;
  J.Arr rows

(* Checkpoint-overhead series: the cost of crash safety.  Each registry
   workload runs plain and supervised (periodic snapshots at a sweep of
   cadences), interleaved, best-of-N wall times.  The headline number
   is the fractional ns/base-insn overhead at the default cadence — the
   cost a long production run pays for being resumable after kill -9. *)
let checkpoint_series () =
  print_newline ();
  print_endline "Checkpoint overhead: plain vs supervised";
  print_endline "----------------------------------------";
  let module J = Obs.Json in
  let everys = [ 10_000; 50_000; 200_000 ] in
  let default_every = 50_000 in
  (* execution is deterministic, so wall-time noise is one-sided (host
     scheduling only ever adds time): the minimum of the interleaved
     samples is the robust estimator, not the median *)
  let minimum l = List.fold_left min infinity l in
  let time_run (w : Workloads.Wl.t) attach =
    let mem, entry = Workloads.Wl.instantiate w in
    let vmm = Vmm.Monitor.create mem in
    attach vmm;
    let t0 = Unix.gettimeofday () in
    ignore (Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2));
    (Unix.gettimeofday () -. t0, vmm.stats)
  in
  let reps = 7 in
  let default_overheads = ref [] in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        let _, _, _, it = Vmm.Run.reference w in
        let base = float_of_int (max 1 it.Ppc.Interp.icount) in
        let plain_samples = ref [] in
        let per_every =
          List.map
            (fun every ->
              let dir =
                Filename.concat (Filename.get_temp_dir_name ())
                  (Printf.sprintf "daisy_bench_ck.%d.%s.%d" (Unix.getpid ())
                     w.name every)
              in
              let snapshots = ref 0 and seconds = ref 0. in
              let samples =
                List.init reps (fun _ ->
                    (* interleave a plain run with every supervised one
                       so host-load drift hits both sides equally *)
                    plain_samples :=
                      fst (time_run w (fun _ -> ())) :: !plain_samples;
                    let stack =
                      { Guard.Stack.default with
                        checkpoint = Some { dir; every } }
                    in
                    let dt, stats =
                      time_run w (fun vmm ->
                          ignore (Guard.Stack.attach ~workload:w.name stack vmm))
                    in
                    snapshots := stats.checkpoints_written;
                    seconds := stats.checkpoint_seconds;
                    dt)
              in
              let bytes =
                List.fold_left
                  (fun acc f ->
                    acc
                    + (try
                         (Unix.stat (Filename.concat dir f)).Unix.st_size
                       with Unix.Unix_error _ -> 0))
                  0
                  (try Array.to_list (Sys.readdir dir)
                   with Sys_error _ -> [])
              in
              ignore (Tcache.Store.clear_dir dir);
              (try
                 Array.iter
                   (fun f -> Sys.remove (Filename.concat dir f))
                   (Sys.readdir dir);
                 Sys.rmdir dir
               with Sys_error _ -> ());
              (every, minimum samples, !snapshots, bytes, !seconds))
            everys
        in
        (* the plain estimate uses every interleaved sample, so it sees
           the same spread of host conditions as the supervised runs *)
        let plain_ns = minimum !plain_samples *. 1e9 /. base in
        let rows =
          List.map
            (fun (every, ck, snapshots, bytes, seconds) ->
              let ck_ns = ck *. 1e9 /. base in
              let overhead = (ck_ns -. plain_ns) /. plain_ns in
              if every = default_every then
                default_overheads := overhead :: !default_overheads;
              Printf.printf
                "%-10s every %6d   %7.1f -> %7.1f ns/insn   %+6.1f%%   %3d snapshots (%d B, %.1f ms)\n"
                w.name every plain_ns ck_ns (overhead *. 100.) snapshots
                bytes (seconds *. 1000.);
              J.Obj
                [ ("every", J.Int every);
                  ("ns_per_base_insn", J.Float ck_ns);
                  ("overhead_frac", J.Float overhead);
                  ("snapshots", J.Int snapshots);
                  ("snapshot_bytes", J.Int bytes);
                  ("write_seconds", J.Float seconds) ])
            per_every
        in
        J.Obj
          [ ("name", J.Str w.name);
            ("base_insns", J.Int it.Ppc.Interp.icount);
            ("plain_ns_per_base_insn", J.Float plain_ns);
            ("checkpointed", J.Arr rows) ])
      Workloads.Registry.all
  in
  let mean_default =
    match !default_overheads with
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf "mean overhead at default cadence (every %d): %+.1f%%\n"
    default_every (mean_default *. 100.);
  ( J.Obj
      [ ("default_every", J.Int default_every);
        ("overhead_frac_default_mean", J.Float mean_default);
        ("workloads", J.Arr rows) ],
    mean_default )

(* Observability-overhead series: what the always-on flight recorder
   costs.  Each registry workload runs bare and with the full recorder
   stack (flight ring + region profile fed through the bridge, exactly
   the {!Guard.Stack} a default [daisy run] attaches), interleaved
   best-of-N, and the row reports the fractional slowdown per base
   instruction.  This is the number that justifies "always-on": it has
   to stay small. *)
let obs_overhead_series () =
  print_newline ();
  print_endline "Observability overhead: flight recorder off vs on";
  print_endline "-------------------------------------------------";
  let module J = Obs.Json in
  let minimum l = List.fold_left min infinity l in
  let time_run (w : Workloads.Wl.t) attach =
    let mem, entry = Workloads.Wl.instantiate w in
    let vmm = Vmm.Monitor.create mem in
    attach vmm;
    let t0 = Unix.gettimeofday () in
    ignore (Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2));
    Unix.gettimeofday () -. t0
  in
  let reps = 7 in
  let overheads = ref [] in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        let _, _, _, it = Vmm.Run.reference w in
        let base = float_of_int (max 1 it.Ppc.Interp.icount) in
        let plain = ref [] and recorded = ref [] in
        let events = ref 0 in
        for _ = 1 to reps do
          (* interleaved, like the checkpoint series: host-load drift
             hits both sides equally *)
          plain := time_run w (fun _ -> ()) :: !plain;
          let flight = Obs.Flight.create () in
          let profile =
            Obs.Profile.create
              ~page_size:Translator.Params.default.page_size ()
          in
          let stack =
            { Guard.Stack.default with
              observers = Some (Obs.Bridge.create ~profile ~flight ()) }
          in
          recorded :=
            time_run w (fun vmm ->
                ignore (Guard.Stack.attach ~workload:w.name stack vmm))
            :: !recorded;
          events := Obs.Flight.total flight
        done;
        let plain_ns = minimum !plain *. 1e9 /. base in
        let rec_ns = minimum !recorded *. 1e9 /. base in
        let overhead = (rec_ns -. plain_ns) /. plain_ns in
        overheads := overhead :: !overheads;
        Printf.printf
          "%-10s %7.1f -> %7.1f ns/insn   %+6.1f%%   %d events through the ring\n"
          w.name plain_ns rec_ns (overhead *. 100.) !events;
        J.Obj
          [ ("name", J.Str w.name);
            ("base_insns", J.Int it.Ppc.Interp.icount);
            ("plain_ns_per_base_insn", J.Float plain_ns);
            ("recorder_ns_per_base_insn", J.Float rec_ns);
            ("overhead_frac", J.Float overhead);
            ("events_recorded", J.Int !events) ])
      Workloads.Registry.all
  in
  let mean =
    match !overheads with
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf "mean recorder overhead: %+.1f%%\n" (mean *. 100.);
  (J.Obj [ ("overhead_frac_mean", J.Float mean); ("workloads", J.Arr rows) ],
   mean)

(* Serve-fleet series: the multi-tenant shared-cache economics.  A
   fleet of short sessions runs twice over one cache directory through
   the serve layer's domain pool and translate gate — the cold pass
   measures how much of the translate storm the gate coalesced versus
   naive per-session translation, the warm pass measures the headline
   claim: aggregate hit rate and zero retranslation across the whole
   fleet. *)
let serve_fleet_series () =
  print_newline ();
  print_endline "Serve fleet: shared translation cache, cold vs warm";
  print_endline "---------------------------------------------------";
  let module J = Obs.Json in
  let sessions = 100 in
  let domains = 4 in
  let workloads = [ "wc"; "cmp" ] in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_bench_serve.%d" (Unix.getpid ()))
  in
  (* the naive baseline: with no shared cache, every session translates
     its own working set — one isolated uncached run per workload gives
     the per-session page count *)
  let naive_per_session =
    List.map (fun name ->
        (name, (Vmm.Run.run (Workloads.Registry.by_name name)).pages_translated))
      workloads
  in
  let naive =
    List.init sessions (fun i ->
        snd (List.nth naive_per_session (i mod List.length naive_per_session)))
    |> List.fold_left ( + ) 0
  in
  let pool = Serve.Pool.create ~domains () in
  let shared = Serve.Shared.create ~dir () in
  let line tag (r : Serve.Fleet.report) =
    Printf.printf
      "%-5s %3d sessions  %2d failed  hit rate %.3f  pages %4d  \
       p50 %6.1fms  p99 %6.1fms  coalesced %d  %.2fs\n"
      tag r.sessions r.failures r.hit_rate r.pages_translated r.p50_ms
      r.p99_ms r.gate_waits r.wall_seconds
  in
  let finish () =
    Serve.Pool.shutdown pool;
    ignore (Tcache.Store.clear_dir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  match
    let cold, _ = Serve.Fleet.run ~pool ~shared ~sessions workloads in
    line "cold" cold;
    let warm, _ =
      Serve.Fleet.run ~first_id:sessions ~pool ~shared ~sessions workloads
    in
    line "warm" warm;
    (cold, warm)
  with
  | cold, warm ->
    finish ();
    Printf.printf
      "naive per-session translation: %d pages; shared cold fleet: %d \
       (%.1fx less)\n"
      naive cold.pages_translated
      (float_of_int naive /. float_of_int (max 1 cold.pages_translated));
    J.Obj
      [ ("sessions", J.Int sessions); ("domains", J.Int domains);
        ("workloads", J.Arr (List.map (fun w -> J.Str w) workloads));
        ("naive_pages_translated", J.Int naive);
        ("cold", Serve.Fleet.report_json cold);
        ("warm", Serve.Fleet.report_json warm) ]
  | exception e ->
    finish ();
    raise e

(* Chaos-serving series: a whole fleet under the fault cocktail with
   per-session deadlines and a tight admission queue — the serving
   failure model measured rather than asserted.  The numbers that
   matter: p99 stays bounded, every failure is typed (crash and
   mismatch stay zero), poisoned cache entries self-heal, and the
   coordinator ends the run with nothing stuck or leaked. *)
let serve_chaos_series () =
  print_newline ();
  print_endline "Serve chaos: fleet under fault cocktail, deadlines, shedding";
  print_endline "------------------------------------------------------------";
  let module J = Obs.Json in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_bench_chaos.%d" (Unix.getpid ()))
  in
  let cfg =
    { Serve.Chaos.default with
      sessions = 32; domains = 4; queue_cap = 4; seed = 9;
      (* generous: "deadlines enforced" is the point, not flakiness *)
      deadline_ms = Some 30_000 }
  in
  let finish () =
    ignore (Tcache.Store.clear_dir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  match Serve.Chaos.run ~dir cfg with
  | r, _ ->
    finish ();
    Printf.printf
      "%d sessions  ok %d  deadline %d  cancelled %d  crash %d  mismatch %d\n"
      r.sessions r.ok r.deadline_failures r.cancelled_failures
      r.crash_failures r.mismatch_failures;
    Printf.printf
      "p50 %.1fms  p99 %.1fms  injected %d  self-heals %d  strikes %d  \
       sheds %d  retries %d\n"
      r.p50_ms r.p99_ms r.injected r.counters.tcache_quarantined
      r.counters.quarantines r.sheds r.retries;
    (match Serve.Chaos.verdict r with
    | `Clean -> print_endline "contract: clean"
    | `Violations v ->
      print_endline ("contract VIOLATED: " ^ String.concat "; " v));
    Serve.Fleet.report_json r
  | exception e ->
    finish ();
    raise e

(* Storage-chaos series: the same serving fleet, but the disk is the
   adversary — every session's cache runs on a seeded fault backend
   (ENOSPC, EIO, short writes, torn renames) while the guest-level
   injectors stay quiet, so whatever breaks is storage handling alone.
   The fleet invariant under measurement: a disk fault costs at most
   one retranslation and never a crash, a mismatch, or leaked shared
   state.  Afterwards a clean warm fleet over the surviving store heals
   the holes (its translation count is the price actually paid), and
   `fsck --repair` must leave the tree clean. *)
let storage_chaos_series () =
  print_newline ();
  print_endline "Storage chaos: fleet on a lying disk, then warm heal + fsck";
  print_endline "-----------------------------------------------------------";
  let module J = Obs.Json in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_bench_storage.%d" (Unix.getpid ()))
  in
  let cfg =
    { Serve.Chaos.default with
      sessions = 32; domains = 4; queue_cap = 8; seed = 11;
      inject = Fault.Inject.quiet;
      storage = Some Fsio.storage_cocktail }
  in
  let finish () =
    ignore (Tcache.Store.clear_dir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  match
    let r, _ = Serve.Chaos.run ~dir cfg in
    let pool = Serve.Pool.create ~domains:cfg.domains () in
    let shared = Serve.Shared.create ~dir () in
    let heal =
      Fun.protect
        ~finally:(fun () -> Serve.Pool.shutdown pool)
        (fun () ->
          fst
            (Serve.Fleet.run ~first_id:cfg.sessions ~pool ~shared
               ~sessions:cfg.sessions cfg.workloads))
    in
    let repaired = Guard.Fsck.run ~repair:true ~tcache_dir:dir () in
    let fsck_clean = Guard.Fsck.all_clean (Guard.Fsck.run ~tcache_dir:dir ()) in
    (r, heal, repaired, fsck_clean)
  with
  | r, heal, repaired, fsck_clean ->
    finish ();
    Printf.printf
      "%d sessions  ok %d  crash %d  mismatch %d  stuck gates %d  leaked \
       pins %d\n"
      r.sessions r.ok r.crash_failures r.mismatch_failures r.stuck_gates
      r.leaked_pins;
    Printf.printf
      "disk faults %d  degraded ops %d  storage strikes %d  self-heals %d\n"
      r.storage_injected r.counters.tcache_degraded r.counters.storage_faults
      r.counters.tcache_quarantined;
    let fsck_issues =
      List.fold_left (fun n rep -> n + Guard.Fsck.issues rep) 0 repaired
    in
    Printf.printf
      "warm heal: %d failed  %d pages retranslated (bound: %d faults)  \
       fsck: %d issue(s) repaired, %s\n"
      heal.Serve.Fleet.failures heal.pages_translated r.storage_injected
      fsck_issues
      (if fsck_clean then "clean" else "NOT CLEAN");
    (match Serve.Chaos.verdict r with
    | `Clean -> print_endline "contract: clean"
    | `Violations v ->
      print_endline ("contract VIOLATED: " ^ String.concat "; " v));
    J.Obj
      [ ("sessions", J.Int r.sessions); ("ok", J.Int r.ok);
        ("crash_failures", J.Int r.crash_failures);
        ("mismatch_failures", J.Int r.mismatch_failures);
        ("stuck_gates", J.Int r.stuck_gates);
        ("leaked_pins", J.Int r.leaked_pins);
        ("storage_injected", J.Int r.storage_injected);
        ("tcache_degraded", J.Int r.counters.tcache_degraded);
        ("storage_faults", J.Int r.counters.storage_faults);
        ("tcache_quarantined", J.Int r.counters.tcache_quarantined);
        ("heal_failures", J.Int heal.failures);
        ("heal_pages_translated", J.Int heal.pages_translated);
        ("fsck_issues_repaired", J.Int fsck_issues);
        ("fsck_clean", J.Bool fsck_clean) ]
  | exception e ->
    finish ();
    raise e

(* Tier-promotion series: what the tier-2 superblock scheduler buys on
   the hot-region workloads.  Three measured points per workload:

     tier1     — the one-pass page translator alone (the baseline);
     cold      — tier-2 enabled from a cold cache: the compile,
                 swap-in and deopt machinery all on the run's critical
                 path, promotion landing mid-run;
     warm      — the same run again over the persisted region image:
                 the whole run executes promoted, which is the honest
                 "ILP on promoted regions" number;

   plus the traditional-VLIW-compiler reference (whole-program static
   compilation, the ceiling tier-2 approaches).  The acceptance bar:
   warm ILP strictly above tier-1 on both c_sieve (single hot page,
   wider window) and compress (cross-page SCC, speculation across the
   former page boundary). *)
let tier_promotion_series () =
  print_newline ();
  print_endline "Tier-2 promotion: tier-1 vs cold promotion vs warm start";
  print_endline "--------------------------------------------------------";
  let module J = Obs.Json in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.by_name name in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "daisy_bench_tier.%d.%s" (Unix.getpid ()) name)
        in
        let tier1, tier1_s = time (fun () -> Vmm.Run.run w) in
        let run_tier () =
          fst
            (Guard.Stack.run
               { Guard.Stack.default with
                 tcache_dir = Some dir; tier2 = Some Obs.Tier.default }
               w)
        in
        let cold, cold_s = time run_tier in
        let warm, warm_s = time run_tier in
        let trad = Vmm.Run.run ~params:(Baseline.Tradcomp.params w) w in
        ignore (Tcache.Store.clear_dir dir);
        (try Sys.rmdir dir with Sys_error _ -> ());
        let compile_ms = cold.stats.tier2_compile_seconds *. 1e3 in
        let ns_per_insn r s =
          s *. 1e9 /. float_of_int (max 1 r.Vmm.Run.base_insns)
        in
        let mips r s = float_of_int r.Vmm.Run.base_insns /. s /. 1e6 in
        Printf.printf
          "%-10s ILP %.2f -> %.2f cold -> %.2f warm (tradcomp %.2f)\n"
          name tier1.ilp_inf cold.ilp_inf warm.ilp_inf trad.ilp_inf;
        Printf.printf
          "           promotions %d (%.1f ms compile), deopts %d, region \
           VLIWs %d/%d, %.0f -> %.0f emulated KIPS\n"
          cold.stats.tier2_promotions compile_ms cold.stats.tier2_deopts
          warm.stats.tier2_vliws warm.stats.vliws
          (mips tier1 tier1_s *. 1e3)
          (mips warm warm_s *. 1e3);
        J.Obj
          [ ("name", J.Str name);
            ("tier1_ilp_inf", J.Float tier1.ilp_inf);
            ("cold_ilp_inf", J.Float cold.ilp_inf);
            ("warm_ilp_inf", J.Float warm.ilp_inf);
            ("tradcomp_ilp_inf", J.Float trad.ilp_inf);
            ("promotions", J.Int cold.stats.tier2_promotions);
            ("deopts", J.Int cold.stats.tier2_deopts);
            ("compile_ms", J.Float compile_ms);
            ("cold_region_vliws", J.Int cold.stats.tier2_vliws);
            ("warm_region_vliws", J.Int warm.stats.tier2_vliws);
            ("tier1_ns_per_insn", J.Float (ns_per_insn tier1 tier1_s));
            ("cold_ns_per_insn", J.Float (ns_per_insn cold cold_s));
            ("warm_ns_per_insn", J.Float (ns_per_insn warm warm_s));
            ("tier1_mips", J.Float (mips tier1 tier1_s));
            ("warm_mips", J.Float (mips warm warm_s)) ])
      [ "c_sieve"; "compress" ]
  in
  J.Arr rows

(* Host-throughput series: wall-clock speed of staged execution over
   the whole registry.  This is the fleet-migration metric —
   nanoseconds of host time per emulated base instruction — measured
   (best of three) rather than asserted. *)
let host_throughput_series () =
  print_newline ();
  print_endline "Host throughput: staged closures";
  print_endline "--------------------------------";
  let module J = Obs.Json in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        (* base-instruction count from the reference interpreter; the
           VMM runs below skip re-verification timing noise by timing
           only create + execute *)
        let _, _, _, it = Vmm.Run.reference w in
        let base_insns = it.Ppc.Interp.icount in
        let best = ref infinity in
        let stats = ref None in
        for _ = 1 to 3 do
          let mem, entry = Workloads.Wl.instantiate w in
          let vmm = Vmm.Monitor.create mem in
          let t0 = Unix.gettimeofday () in
          ignore (Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2));
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt;
          stats := Some vmm.stats
        done;
        let s = Option.get !stats in
        let seconds = !best in
        let ns_per_insn = seconds *. 1e9 /. float_of_int (max 1 base_insns) in
        let mips = float_of_int base_insns /. (seconds *. 1e6) in
        let compile_ms_per_page =
          if s.compiled_pages > 0 then
            s.compile_seconds *. 1000. /. float_of_int s.compiled_pages
          else 0.
        in
        Printf.printf
          "%-10s %8.3f ms   %7.1f ns/insn   %7.2f MIPS   %d pages with staged \
           trees (%.3f ms of tree staging/page)\n"
          w.name (seconds *. 1000.) ns_per_insn mips s.compiled_pages
          compile_ms_per_page;
        J.Obj
          [ ("name", J.Str w.name);
            ("seconds", J.Float seconds);
            ("base_insns", J.Int base_insns);
            ("ns_per_base_insn", J.Float ns_per_insn);
            ("emulated_mips", J.Float mips);
            ("compiled_pages", J.Int s.compiled_pages);
            ("direct_link_hits", J.Int s.direct_link_hits);
            ("compile_ms_per_page", J.Float compile_ms_per_page) ])
      Workloads.Registry.all
  in
  J.Arr rows

(* Machine-readable results: every workload's headline series (infinite
   and finite cache) plus the translator's raw speed, for trend tracking
   across commits. *)
let write_bench_json path micro =
  let module J = Obs.Json in
  let workload (w : Workloads.Wl.t) =
    let i = Stats.Experiments.inf w in
    let f = Stats.Experiments.fin w in
    J.Obj
      [ ("name", J.Str w.name);
        ("base_insns", J.Int i.base_insns);
        ("ilp_inf", J.Float i.ilp_inf);
        ("ilp_fin", J.Float f.ilp_fin);
        ("cycles_infinite", J.Int i.cycles_infinite);
        ("cycles_finite", J.Int f.cycles_finite);
        ("stall_cycles", J.Int f.stats.cache_stalls);
        ("miss_l0d", J.Float f.miss_l0d);
        ("miss_l0i", J.Float f.miss_l0i);
        ("miss_joint", J.Float f.miss_joint);
        ("vliws", J.Int i.stats.vliws);
        ("interp_insns", J.Int i.stats.interp_insns);
        ("pages_translated", J.Int i.pages_translated);
        ("code_bytes", J.Int i.code_bytes) ]
  in
  let ws = Workloads.Registry.all in
  let mean_ilp =
    List.fold_left
      (fun acc w -> acc +. (Stats.Experiments.inf w).Vmm.Run.ilp_inf)
      0.0 ws
    /. float_of_int (max 1 (List.length ws))
  in
  let translator =
    match micro with
    | None -> J.Null
    | Some (insns, ests) ->
      let get name =
        match List.assoc_opt name ests with
        | Some ns -> J.Float ns
        | None -> J.Null
      in
      let per_insn =
        match List.assoc_opt "daisy/translate-page" ests with
        | Some ns when insns > 0 -> J.Float (ns /. float_of_int insns)
        | _ -> J.Null
      in
      J.Obj
        [ ("translate_page_ns", get "daisy/translate-page");
          ("ns_per_base_insn", per_insn);
          ("interp_1k_insns_ns", get "daisy/interp-1k-insns") ]
  in
  let tcache =
    try tcache_series ()
    with e ->
      Printf.printf "tcache series skipped: %s\n" (Printexc.to_string e);
      J.Null
  in
  let host_throughput =
    try host_throughput_series ()
    with e ->
      Printf.printf "host-throughput series skipped: %s\n"
        (Printexc.to_string e);
      J.Null
  in
  let checkpoint, mean_ck_overhead =
    try checkpoint_series ()
    with e ->
      Printf.printf "checkpoint series skipped: %s\n" (Printexc.to_string e);
      (J.Null, 0.)
  in
  let obs_overhead, mean_obs_overhead =
    try obs_overhead_series ()
    with e ->
      Printf.printf "obs-overhead series skipped: %s\n" (Printexc.to_string e);
      (J.Null, 0.)
  in
  let serve_fleet =
    try serve_fleet_series ()
    with e ->
      Printf.printf "serve-fleet series skipped: %s\n" (Printexc.to_string e);
      J.Null
  in
  let serve_chaos =
    try serve_chaos_series ()
    with e ->
      Printf.printf "serve-chaos series skipped: %s\n" (Printexc.to_string e);
      J.Null
  in
  let storage_chaos =
    try storage_chaos_series ()
    with e ->
      Printf.printf "storage-chaos series skipped: %s\n"
        (Printexc.to_string e);
      J.Null
  in
  let tier_promotion =
    try tier_promotion_series ()
    with e ->
      Printf.printf "tier-promotion series skipped: %s\n"
        (Printexc.to_string e);
      J.Null
  in
  let j =
    J.Obj
      [ ("schema", J.Str "daisy-bench-v11");
        ("workloads", J.Arr (List.map workload ws));
        ("mean_ilp_inf", J.Float mean_ilp);
        ("translator", translator);
        ("tcache", tcache);
        ("host_throughput", host_throughput);
        ("checkpoint", checkpoint);
        ("checkpoint_overhead_default_mean", J.Float mean_ck_overhead);
        ("obs_overhead", obs_overhead);
        ("obs_overhead_frac_mean", J.Float mean_obs_overhead);
        ("serve_fleet", serve_fleet);
        ("serve_chaos", serve_chaos);
        ("storage_chaos", storage_chaos);
        ("tier_promotion", tier_promotion) ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> J.to_channel oc j);
  Printf.printf "\nwrote %s\n" path

let () =
  let t0 = Unix.gettimeofday () in
  print_endline "DAISY experiment suite: regenerating all tables and figures";
  Stats.Experiments.all ();
  let micro =
    try Some (translator_microbench ())
    with e ->
      Printf.printf "translator micro-benchmark skipped: %s\n"
        (Printexc.to_string e);
      None
  in
  (try write_bench_json "BENCH_daisy.json" micro
   with e ->
     Printf.printf "BENCH_daisy.json skipped: %s\n" (Printexc.to_string e));
  Printf.printf "\nTotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0)
