(* Tests for the supervision subsystem (lib/guard): deterministic
   checkpoint/restore, graceful SIGTERM shutdown, watchdog deadlines,
   sampled shadow verification, and the run stack that composes them
   with the observers, fault injection and tier-2. *)

module Run = Vmm.Run
module Monitor = Vmm.Monitor
module Checkpoint = Guard.Checkpoint
module Supervise = Guard.Supervise
module Watchdog = Guard.Watchdog
module Shadow = Guard.Shadow
module Stack = Guard.Stack
module Wl = Workloads.Wl

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)

let rm_rf dir =
  let rec go path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  go dir

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy-guard-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Tcache.Store.mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore                                                  *)

(* Cut a run short with a small fuel budget — the in-process stand-in
   for kill -9 — then resume from the checkpoint directory and let
   [Run.run]'s differential verification prove the completed execution
   is bit-identical to an uninterrupted one: same exit code, same
   architected state, same memory, same console.  The resumed run keeps
   checkpointing into the directory, continuing its numbering. *)
let test_resume_bit_identical () =
  let dir = fresh_dir "resume" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:2_000
       ~workload:w.name vmm);
  let code = Monitor.run vmm ~entry ~fuel:20_000 in
  Alcotest.(check (option int)) "cut short mid-run" None code;
  Alcotest.(check bool) "snapshots written" true
    (vmm.stats.checkpoints_written > 0);
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "nothing dropped" 0 l.dropped;
  Alcotest.(check string) "workload recorded" "wc" l.last.s_workload;
  let r, _ =
    Stack.run ~resume:l
      { Stack.default with
        checkpoint = Some { dir; every = l.last.s_every } }
      w
  in
  Alcotest.(check (option int)) "golden exit code" (Some 4691) r.exit_code;
  Alcotest.(check bool) "resumed run was clean" false (Run.degraded r.stats);
  let l' = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check bool) "numbering continues" true
    (l'.last.s_seq > l.last.s_seq);
  Alcotest.(check int) "one unbroken sequence" (l'.last.s_seq + 1) l'.valid;
  rm_rf dir

(* The degradation ladder's verdict must survive a round-trip: a run
   that was degraded before the crash must still report exit 4 after
   resuming, even if nothing fails again. *)
let test_degraded_state_survives () =
  let dir = fresh_dir "degraded" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  vmm.stats.quarantines <- 3;
  vmm.stats.interp_pinned <- 1;
  vmm.stats.deadline_hits <- 2;
  vmm.stats.vliws <- 1000;
  vmm.stats.interp_insns <- 500;
  Hashtbl.replace vmm.page_health 0x1000
    { Monitor.failures = 5; backoff_until = 1234; pinned_interp = true };
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  Ppc.Mem.store32 vmm.mem (Wl.scratch_base + 0x40) 0xBEEF;
  ignore (Checkpoint.write ck ~pc:0x1058);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  let pc, consumed = Checkpoint.restore_into l vmm2 in
  Alcotest.(check int) "resume pc" 0x1058 pc;
  Alcotest.(check int) "consumed cycles" 1500 consumed;
  Alcotest.(check int) "quarantines" 3 vmm2.stats.quarantines;
  Alcotest.(check int) "pins" 1 vmm2.stats.interp_pinned;
  Alcotest.(check int) "deadline hits" 2 vmm2.stats.deadline_hits;
  Alcotest.(check bool) "still degraded" true (Run.degraded vmm2.stats);
  (match Hashtbl.find_opt vmm2.page_health 0x1000 with
  | Some h ->
    Alcotest.(check int) "failures" 5 h.Monitor.failures;
    Alcotest.(check int) "backoff" 1234 h.backoff_until;
    Alcotest.(check bool) "pin survives" true h.pinned_interp
  | None -> Alcotest.fail "page health lost");
  Alcotest.(check int) "dirty memory restored" 0xBEEF
    (Ppc.Mem.load32 vmm2.mem (Wl.scratch_base + 0x40));
  rm_rf dir

(* Every integer row of the counter table round-trips by name, so a
   resumed run reports whole-run totals. *)
let test_every_counter_survives () =
  let dir = fresh_dir "counters" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  List.iteri
    (fun i (row : int Monitor.row) -> row.set vmm.stats (1000 + i))
    Monitor.counters;
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:0x1000);
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  ignore (Checkpoint.restore_into (Option.get (Checkpoint.load ~dir ())) vmm2);
  List.iteri
    (fun i (row : int Monitor.row) ->
      Alcotest.(check int) row.name (1000 + i) (row.get vmm2.stats))
    Monitor.counters;
  rm_rf dir

(* A restored [tcache_degraded] is a whole-run total, above the fresh
   store's own degraded count: the next storage-faulted cache operation
   must still surface as exactly one [Tcache_degraded] and add one. *)
let test_degraded_fires_after_restore () =
  let dir = fresh_dir "degraded-ck" in
  let tdir = fresh_dir "degraded-tc" in
  let w = Workloads.Registry.by_name "wc" in
  ignore (Run.run ~tcache_dir:tdir w);
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  vmm.stats.tcache_degraded <- 5;
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:entry);
  let io, _ = Fsio.faulty { Fsio.fault_quiet with eio_read_rate = 1.0 } in
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create ~tcache_dir:tdir ~tcache_io:io mem2 in
  ignore (Checkpoint.restore_into (Option.get (Checkpoint.load ~dir ())) vmm2);
  let fired = ref 0 in
  Monitor.on_event vmm2 (function
    | Monitor.Tcache_degraded _ -> incr fired
    | _ -> ());
  let store = Option.get vmm2.tcache in
  let page = Translator.Translate.page_base vmm2.tr entry in
  ignore
    (Monitor.tcache_probe vmm2 store ~key:(Monitor.page_key vmm2 store page)
       ~page vmm2.tr);
  Alcotest.(check int) "one Tcache_degraded event" 1 !fired;
  Alcotest.(check int) "the total continues" 6 vmm2.stats.tcache_degraded;
  rm_rf dir;
  rm_rf tdir

(* Checkpoint time is wall time: a disk that takes 20 ms per write shows
   in [checkpoint_seconds] and in the event, though the process sleeps
   through it. *)
let test_checkpoint_time_is_wall_time () =
  let dir = fresh_dir "walltime" in
  let slow =
    { Fsio.real with
      write_file =
        (fun path contents ->
          Unix.sleepf 0.02;
          Fsio.real.write_file path contents) }
  in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let seconds = ref 0. in
  Monitor.on_event vmm (function
    | Monitor.Checkpoint_written { seconds = s; _ } -> seconds := s
    | _ -> ());
  let ck = Checkpoint.attach ~dir ~every:1 ~io:slow ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:0x1000);
  Alcotest.(check bool)
    (Printf.sprintf "checkpoint_seconds %.4f >= 0.02"
       vmm.stats.checkpoint_seconds)
    true
    (vmm.stats.checkpoint_seconds >= 0.02);
  Alcotest.(check bool) "event seconds >= 0.02" true (!seconds >= 0.02);
  rm_rf dir

(* A corrupt snapshot invalidates itself and everything after it (later
   deltas assume the earlier image), so [load] restores the longest
   valid prefix. *)
let test_longest_valid_prefix () =
  let dir = fresh_dir "prefix" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  let addr i = Wl.scratch_base + (i * 8) in
  List.iter
    (fun i ->
      Ppc.Mem.store32 vmm.mem (addr i) (0x100 + i);
      ignore (Checkpoint.write ck ~pc:0x1000))
    [ 0; 1; 2 ];
  let flip_byte path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string s in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  (* corrupt the middle snapshot: only ck-000000 survives *)
  flip_byte (Filename.concat dir "ck-000001.dgck");
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "valid prefix" 1 l.valid;
  Alcotest.(check int) "rest dropped" 2 l.dropped;
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  ignore (Checkpoint.restore_into l vmm2);
  Alcotest.(check int) "first delta applied" 0x100
    (Ppc.Mem.load32 vmm2.mem (addr 0));
  Alcotest.(check int) "later deltas not applied" 0
    (Ppc.Mem.load32 vmm2.mem (addr 1));
  (* corrupt only the last: the first two restore *)
  flip_byte (Filename.concat dir "ck-000002.dgck");
  Sys.remove (Filename.concat dir "ck-000001.dgck");
  ignore (Checkpoint.write ck ~pc:0x1000);
  (* directory now: valid 000000, (rewritten valid 000003), corrupt 000002 —
     reload sees 000000 valid, then 000002 invalid, drops the rest *)
  let l = Option.get (Checkpoint.load ~dir ()) in
  Alcotest.(check int) "stops at first bad file" 1 l.valid;
  rm_rf dir;
  Alcotest.(check bool) "missing dir loads as empty" true
    (Checkpoint.load ~dir () = None)

(* SIGTERM discipline, without the signal: the flag is polled at commit
   boundaries only, a final snapshot is written, and {!Terminated}
   unwinds.  Resuming from that snapshot completes the run with the
   golden exit code. *)
let test_graceful_termination_and_resume () =
  let dir = fresh_dir "sigterm" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:max_int
       ~workload:w.name vmm);
  Supervise.request_termination ();
  (match Monitor.run vmm ~entry ~fuel:(w.fuel * 2) with
  | exception Supervise.Terminated -> ()
  | _ -> Alcotest.fail "run was not terminated");
  Supervise.terminate := false;
  Alcotest.(check int) "final snapshot written" 1
    vmm.stats.checkpoints_written;
  let l = Option.get (Checkpoint.load ~dir ()) in
  let r, _ = Stack.run ~resume:l Stack.default w in
  Alcotest.(check (option int)) "completes after resume" (Some 4691)
    r.exit_code;
  rm_rf dir

(* Resuming under different translation parameters is refused: the run
   would no longer be comparable to the one that wrote the snapshot. *)
let test_incompatible_params_refused () =
  let dir = fresh_dir "incompat" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:0x1000);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 =
    Monitor.create
      ~params:{ Translator.Params.default with page_size = 512 }
      mem2
  in
  (match Checkpoint.restore_into l vmm2 with
  | exception Checkpoint.Incompatible _ -> ()
  | _ -> Alcotest.fail "fingerprint mismatch not refused");
  rm_rf dir

(* A snapshot written under another format version is refused.  The
   checksum covers only the payload, so rewriting the version byte of a
   valid file exercises exactly the version check. *)
let test_old_version_refused () =
  let dir = fresh_dir "version" in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm in
  ignore (Checkpoint.write ck ~pc:0x1000);
  let path = Filename.concat dir "ck-000000.dgck" in
  let ic = open_in_bin path in
  let b = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let at = String.length Checkpoint.magic in
  Alcotest.(check int) "written at the current version" Checkpoint.version
    (Char.code (Bytes.get b at));
  Bytes.set b at (Char.chr (Checkpoint.version - 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  Alcotest.(check bool) "version-1 snapshot refused" true
    (Checkpoint.load ~dir () = None);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Watchdog deadlines                                                  *)

(* A translation budget every page overruns: the ladder quarantines
   each page, the run completes fully interpreted, and [Run.run]'s
   differential verification still passes — a deadline is a performance
   event, never a correctness one. *)
let test_translate_deadline_degrades () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        (* a negative budget makes every translation overrun,
           deterministically — zero would race the clock's granularity *)
        Watchdog.attach { Watchdog.none with translate_s = Some (-1.) } vmm)
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "still correct" (Some 4691) r.exit_code;
  Alcotest.(check bool) "deadlines fired" true (vmm.stats.deadline_hits > 0);
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats);
  Alcotest.(check bool) "fell back to interpretation" true
    (vmm.stats.interp_insns > 0)

(* The same for staging: a budget every page overruns means no page is
   ever staged.  Each overrun is a [Dcompile] deadline and a ladder
   strike, and the run completes by interpretation, still verified
   against the reference. *)
let test_compile_deadline_degrades () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        Watchdog.attach { Watchdog.none with compile_s = Some (-1.) } vmm)
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "still correct" (Some 4691) r.exit_code;
  Alcotest.(check bool) "deadlines fired" true (vmm.stats.deadline_hits >= 1);
  Alcotest.(check bool) "pages quarantined" true (vmm.stats.quarantines >= 1);
  Alcotest.(check int) "nothing staged" 0 vmm.stats.compiled_pages;
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats)

(* Staging fails partway through a run: once the first page has a
   staged tree, every later tree overruns the budget.  Each tree stages
   at its own first selection, so the next tree to stage takes a
   [Dcompile] deadline and a ladder strike, and the run completes by
   interpretation, still verified against the reference. *)
let test_compile_deadline_midrun () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let compile_deadlines = ref 0 in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        Monitor.on_tick vmm (fun ~pc:_ ->
            if vmm.stats.compiled_pages > 0 && vmm.compile_budget = None then
              vmm.compile_budget <- Some (-1.));
        Monitor.on_event vmm (function
          | Monitor.Deadline { stage = Dcompile; _ } -> incr compile_deadlines
          | _ -> ()))
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "still correct" (Some 4691) r.exit_code;
  Alcotest.(check int) "only the first page staged" 1 vmm.stats.compiled_pages;
  Alcotest.(check bool) "staging deadlines" true (!compile_deadlines >= 1);
  Alcotest.(check int) "each one a deadline hit" !compile_deadlines
    vmm.stats.deadline_hits;
  Alcotest.(check bool) "pages quarantined" true (vmm.stats.quarantines >= 1);
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats)

(* The runaway-loop detector: a branch-to-self revisits the same commit
   boundary forever with no interpretation in between.  The progress
   limit quarantines the page; the (genuinely infinite) loop then burns
   its fuel in the interpreter. *)
let spin_workload =
  { Wl.name = "spin"; description = "infinite loop (watchdog test)";
    build =
      (fun a ->
        Ppc.Asm.label a "main";
        Ppc.Asm.b a "main");
    init = (fun _ _ -> ()); mem_size = Wl.default_mem_size; fuel = 5_000 }

let test_progress_detector () =
  let mem, entry = Wl.instantiate spin_workload in
  let vmm = Monitor.create mem in
  Watchdog.attach { Watchdog.none with progress = Some 16 } vmm;
  let code = Monitor.run vmm ~entry ~fuel:10_000 in
  Alcotest.(check (option int)) "loop never exits" None code;
  Alcotest.(check bool) "runaway detected" true (vmm.stats.deadline_hits > 0);
  Alcotest.(check bool) "page quarantined" true (vmm.stats.quarantines > 0);
  Alcotest.(check bool) "loop continued by interpretation" true
    (vmm.stats.interp_insns > 0)

(* ------------------------------------------------------------------ *)
(* Sampled shadow verification                                         *)

(* A silently corrupted branch sense commits plausible state down the
   wrong path — no digest or datapath check can see it.  With shadow
   verification at 100% sampling the run must detect every divergence,
   write a reproducer, repair, and complete with the correct result
   via the ladder.  The reproducer names the workload, so it replays on
   its own: a mismatch without a shadow, a match with one. *)
let test_shadow_catches_silent_faults () =
  let dir = fresh_dir "shadow" in
  let w = Workloads.Registry.by_name "wc" in
  let faults = { Fault.Inject.quiet with seed = 7; silent_rate = 1.0 } in
  let inject = Fault.Inject.create faults in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        Fault.Inject.attach inject vmm;
        ignore
          (Shadow.attach ~workload:"wc"
             { Shadow.default with sample = 1.0; out_dir = Some dir }
             vmm))
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "correct result despite corruption"
    (Some 4691) r.exit_code;
  Alcotest.(check bool) "faults were injected" true (inject.n_silent > 0);
  Alcotest.(check bool) "every live corruption caught" true
    (vmm.stats.shadow_divergences > 0);
  Alcotest.(check bool) "run degraded" true (Run.degraded r.stats);
  let repro =
    match
      List.find_opt
        (fun f -> Filename.check_suffix f ".txt")
        (Array.to_list (Sys.readdir dir))
    with
    | Some f -> Filename.concat dir f
    | None -> Alcotest.fail "no reproducer written"
  in
  let replay ?attach_extra () = Fault.Fuzz.replay ~faults ?attach_extra repro in
  let shadow vmm =
    ignore (Shadow.attach { Shadow.default with sample = 1.0 } vmm)
  in
  Alcotest.(check bool) "replay mismatches" true
    (match replay () with Mismatch _ -> true | _ -> false);
  Alcotest.(check bool) "shadowed replay matches" true
    (replay ~attach_extra:shadow () = Match);
  rm_rf dir

(* Without injected faults the shadow must stay silent: sampled replays
   verify and the run is not degraded. *)
let test_shadow_clean_run () =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run w
      ~instrument:(fun vmm ->
        captured := Some vmm;
        ignore (Shadow.attach { Shadow.default with sample = 0.2 } vmm))
  in
  let vmm = Option.get !captured in
  Alcotest.(check (option int)) "clean result" (Some 4691) r.exit_code;
  Alcotest.(check bool) "packets were checked" true
    (vmm.stats.shadow_checked > 0);
  Alcotest.(check int) "no divergences" 0 vmm.stats.shadow_divergences;
  Alcotest.(check bool) "not degraded" false (Run.degraded r.stats)

(* Checkpointing and shadow verification compose: a degraded-by-shadow
   run cut short and resumed still reports its divergences. *)
let test_shadow_divergence_survives_checkpoint () =
  let dir = fresh_dir "shadow-ck" in
  let w = Workloads.Registry.by_name "wc" in
  let inject =
    Fault.Inject.create { Fault.Inject.quiet with seed = 7; silent_rate = 1.0 }
  in
  let mem, entry = Wl.instantiate w in
  let vmm = Monitor.create mem in
  Fault.Inject.attach inject vmm;
  ignore
    (Supervise.attach ~checkpoint_dir:dir ~checkpoint_every:2_000
       ~shadow:{ Shadow.default with sample = 1.0 } ~workload:w.name vmm);
  ignore (Monitor.run vmm ~entry ~fuel:50_000);
  Alcotest.(check bool) "divergences before the cut" true
    (vmm.stats.shadow_divergences > 0);
  let l = Option.get (Checkpoint.load ~dir ()) in
  let mem2, _ = Wl.instantiate w in
  let vmm2 = Monitor.create mem2 in
  ignore (Checkpoint.restore_into l vmm2);
  Alcotest.(check int) "divergence count survives"
    vmm.stats.shadow_divergences vmm2.stats.shadow_divergences;
  Alcotest.(check bool) "degraded verdict survives" true
    (Run.degraded vmm2.stats);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The run stack                                                       *)

(* Every component at once: tracer, metrics, profile and flight
   recorder, 1% injected interrupts, checkpoints, shadow sampling and
   tier-2.  The run must verify, and every component must have done
   work. *)
let test_composed_stack () =
  let dir = fresh_dir "composed" in
  let w = Workloads.Registry.by_name "c_sieve" in
  let stack =
    { Stack.default with
      observers =
        Stack.observers ~trace_cap:(1 lsl 20) ~metrics:true ~profile:true
          ~flight:(Filename.concat dir "crash", Obs.Flight.default_capacity)
          ~page_size:Translator.Params.default.page_size ();
      faults = Some { Fault.Inject.quiet with interrupt_rate = 0.01 };
      checkpoint = Some { dir; every = 20_000 };
      shadow = Some { Shadow.default with sample = 0.1 };
      tier2 = Some { Obs.Tier.default with submit = None } }
  in
  let r, _ = Stack.run stack w in
  let b = Option.get stack.observers in
  let positive what n = Alcotest.(check bool) what true (n > 0) in
  Alcotest.(check (option int)) "verified" (Some 1899) r.exit_code;
  positive "trace events" (Obs.Flight.Ring.total (Option.get b.tracer));
  positive "flight events" (Obs.Flight.total (Option.get b.flight));
  positive "checkpoints written" r.stats.checkpoints_written;
  positive "shadow checks" r.stats.shadow_checked;
  positive "interrupts delivered" r.stats.external_interrupts;
  positive "tier-2 promotions" r.stats.tier2_promotions;
  rm_rf dir

(* A session's injector is seeded [seed + id * 0x9E3779B9]: attaching
   with [~id:3] draws the same fault stream as an injector created with
   that seed by hand. *)
let test_session_seed () =
  let w = Workloads.Registry.by_name "wc" in
  let cfg = { Fault.Inject.cocktail with seed = 42 } in
  let via_stack = ref None in
  ignore
    (Run.run w ~instrument:(fun vmm ->
         via_stack :=
           Stack.attach ~id:3 ~workload:w.name
             { Stack.default with faults = Some cfg }
             vmm));
  let direct =
    Fault.Inject.create { cfg with seed = 42 + (3 * 0x9E3779B9) }
  in
  ignore (Run.run w ~instrument:(Fault.Inject.attach direct));
  Alcotest.(check bool) "faults fired" true (Fault.Inject.total direct > 0);
  Alcotest.(check string) "same fault stream" (Fault.Inject.report direct)
    (Fault.Inject.report (Option.get !via_stack))

(* The supervisor's SIGTERM poll only does anything after a handler is
   installed, and callers install one only for a checkpointed run: a
   flight recorder alone must not put a hook on every boundary. *)
let test_flight_alone_unsupervised () =
  let w = Workloads.Registry.by_name "wc" in
  let dir = fresh_dir "flight-alone" in
  let hooked stack =
    let mem, _ = Wl.instantiate w in
    let vmm = Monitor.create mem in
    ignore (Stack.attach ~workload:w.name stack vmm);
    Option.is_some vmm.tick_hook
  in
  let stack =
    { Stack.default with
      observers =
        Stack.observers ~flight:(dir, Obs.Flight.default_capacity)
          ~page_size:Translator.Params.default.page_size () }
  in
  Alcotest.(check bool) "no tick hook" false (hooked stack);
  Alcotest.(check bool) "checkpoint polls" true
    (hooked { stack with checkpoint = Some { dir; every = max_int } });
  (* the same rule holds for a direct call with a flight recorder *)
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore
    (Supervise.attach ~flight:(Obs.Flight.create ~dir ()) ~workload:w.name vmm);
  Alcotest.(check bool) "direct attach: no tick hook" false
    (Option.is_some vmm.tick_hook);
  rm_rf dir

let () =
  Alcotest.run "guard"
    [ ( "checkpoint",
        [ Alcotest.test_case "resume is bit-identical" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "degraded state survives" `Quick
            test_degraded_state_survives;
          Alcotest.test_case "every counter survives" `Quick
            test_every_counter_survives;
          Alcotest.test_case "tcache_degraded fires after restore" `Quick
            test_degraded_fires_after_restore;
          Alcotest.test_case "checkpoint time is wall time" `Quick
            test_checkpoint_time_is_wall_time;
          Alcotest.test_case "longest valid prefix" `Quick
            test_longest_valid_prefix;
          Alcotest.test_case "graceful termination" `Quick
            test_graceful_termination_and_resume;
          Alcotest.test_case "incompatible params refused" `Quick
            test_incompatible_params_refused;
          Alcotest.test_case "old version refused" `Quick
            test_old_version_refused ] );
      ( "watchdog",
        [ Alcotest.test_case "translate deadline degrades" `Quick
            test_translate_deadline_degrades;
          Alcotest.test_case "compile deadline degrades" `Quick
            test_compile_deadline_degrades;
          Alcotest.test_case "compile deadline mid-run" `Quick
            test_compile_deadline_midrun;
          Alcotest.test_case "progress detector" `Quick test_progress_detector ]
      );
      ( "shadow",
        [ Alcotest.test_case "catches silent faults" `Quick
            test_shadow_catches_silent_faults;
          Alcotest.test_case "clean run stays silent" `Quick
            test_shadow_clean_run;
          Alcotest.test_case "divergences survive checkpoint" `Quick
            test_shadow_divergence_survives_checkpoint ] );
      ( "stack",
        [ Alcotest.test_case "every component composed" `Slow
            test_composed_stack;
          Alcotest.test_case "per-session seed" `Quick test_session_seed;
          Alcotest.test_case "flight alone is unsupervised" `Quick
            test_flight_alone_unsupervised ] ) ]
