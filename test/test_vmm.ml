(* Tests for the VMM: workload-level differential equivalence under
   several parameter sets, external-interrupt transparency, adaptive
   alias retranslation, the cast-out-free translation cache, and the
   measured-run harness. *)

module Params = Translator.Params
module Run = Vmm.Run

let golden =
  [ ("compress", 11415); ("lex", 152801411); ("fgrep", 37); ("wc", 4691);
    ("cmp", 16134); ("sort", 928213246); ("c_sieve", 1899);
    ("gcc", 4294885376) ]

let test_golden_exit_codes () =
  List.iter
    (fun (name, expect) ->
      let w = Workloads.Registry.by_name name in
      let r = Run.run w in
      Alcotest.(check (option int)) name (Some expect) r.exit_code;
      Alcotest.(check bool) (name ^ ": pages staged") true
        (r.stats.compiled_pages > 0))
    golden

(* Run.run raises Mismatch on any divergence, so these are full
   differential checks of every workload under each parameter set. *)
let workload_differential params () =
  List.iter
    (fun w -> ignore (Run.run ~params w))
    Workloads.Registry.all

let test_finite_cache_run () =
  let w = Workloads.Registry.by_name "compress" in
  let r = Run.run ~hierarchy:(Memsys.Hierarchy.paper_24issue ()) w in
  Alcotest.(check bool) "stalls accrued" true (r.stall_cycles > 0);
  Alcotest.(check bool) "finite <= infinite ILP" true (r.ilp_fin <= r.ilp_inf);
  Alcotest.(check bool) "misses counted" true (r.load_misses > 0 || r.imiss > 0)

let test_timer_transparency () =
  let w = Workloads.Registry.by_name "wc" in
  let rcode, _, _, _ = Run.reference w in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  vmm.timer_interval <- Some 300;
  let code = Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2) in
  Alcotest.(check (option int)) "result undisturbed" rcode code;
  Alcotest.(check bool) "interrupts fired" true (vmm.stats.external_interrupts > 10);
  let counted = Ppc.Mem.load32 mem (Workloads.Wl.table_base + 0xF00) in
  Alcotest.(check int) "handler saw them all" vmm.stats.external_interrupts counted

(* External interrupts through the fault hook: delivered at a VLIW-tree
   boundary, they must be architecturally invisible.  [Run.run] diffs
   registers, memory and console against the pure interpreter; only the
   mini OS's interrupt counter is allowed to differ.  The hook must not
   fire on the immediate re-entry after delivery — the interrupted VLIW
   has not executed yet, so re-firing forever would (correctly) starve
   the run.  The toggle interrupts every executed VLIW boundary exactly
   once; the qcheck property generalises to every Nth poll. *)
let boundary_run fire =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run
      ~ignore_mem:[ Workloads.Wl.interrupt_count_addr ]
      ~instrument:(fun vmm ->
        captured := Some vmm;
        vmm.boundary_hook <- Some fire)
      w
  in
  (r, Option.get !captured)

let test_interrupt_every_boundary () =
  let armed = ref false in
  let polls = ref 0 in
  let r, vmm =
    boundary_run (fun () ->
        incr polls;
        armed := not !armed;
        !armed)
  in
  Alcotest.(check (option int)) "result undisturbed" (Some 4691) r.exit_code;
  (* the hook is only polled with EE set, so every [true] delivers:
     interrupts taken = boundaries armed = every second poll *)
  Alcotest.(check int) "interrupt at every armed boundary"
    ((!polls + 1) / 2) vmm.stats.external_interrupts;
  Alcotest.(check bool) "interrupts fired" true
    (vmm.stats.external_interrupts > 10);
  let counted = Ppc.Mem.load32 vmm.mem Workloads.Wl.interrupt_count_addr in
  Alcotest.(check int) "handler saw them all" vmm.stats.external_interrupts
    counted;
  Alcotest.(check bool) "transparency is not degradation" false
    (Run.degraded r.stats)

let prop_boundary_interrupts =
  QCheck.Test.make ~name:"interrupt at every Nth VLIW boundary is transparent"
    ~count:8
    QCheck.(int_range 2 50)
    (fun interval ->
      let polls = ref 0 in
      let r, vmm =
        boundary_run (fun () ->
            incr polls;
            !polls mod interval = 0)
      in
      let counted = Ppc.Mem.load32 vmm.mem Workloads.Wl.interrupt_count_addr in
      (* Run.run already verified state/memory/console differentially *)
      r.exit_code = Some 4691
      && vmm.stats.external_interrupts > 0
      && counted = vmm.stats.external_interrupts
      && not (Run.degraded r.stats))

let test_adaptive_alias () =
  let w = Workloads.Registry.by_name "sort" in
  let base = Run.run w in
  let adaptive = Run.run ~params:{ Params.default with adaptive_alias = true } w in
  Alcotest.(check (option int)) "same result" base.exit_code adaptive.exit_code;
  Alcotest.(check bool) "retranslation triggered" true
    (adaptive.stats.adaptive_retranslations > 0);
  Alcotest.(check bool) "aliases reduced" true
    (adaptive.stats.aliases < base.stats.aliases)

let test_crosspage_stats () =
  let w = Workloads.Registry.by_name "gcc" in
  let r = Run.run w in
  Alcotest.(check bool) "indirect calls via CTR" true (r.stats.cross_ctr > 1000);
  Alcotest.(check bool) "returns via LR" true (r.stats.cross_lr > 100)

let test_small_pages_crosspage () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let small = Run.run ~params:{ Params.default with page_size = 256 } w in
  let big = Run.run w in
  Alcotest.(check bool) "smaller pages force more direct cross-page jumps" true
    (small.stats.cross_direct >= big.stats.cross_direct)

let test_reuse_factors () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let r = Run.run w in
  Alcotest.(check bool) "reuse far above break-even" true
    (r.base_insns / max 1 r.static_insns > 2340)

let test_translation_work_is_bounded () =
  (* the join-limit guarantee: scheduled instructions stay within a
     small multiple of the distinct static instructions *)
  List.iter
    (fun (w : Workloads.Wl.t) ->
      let r = Run.run w in
      let bound =
        (Params.default.join_limit + 1) * 4 * (r.static_insns + 64)
      in
      Alcotest.(check bool)
        (w.name ^ ": translation work bounded")
        true (r.insns_translated < bound))
    Workloads.Registry.all

let test_castout_pool () =
  (* a tiny translated-code budget forces cast-outs and retranslation,
     but never changes results; the OS vector page is pinned *)
  let w = Workloads.Registry.by_name "gcc" in
  let rcode, _, _, _ = Run.reference w in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  vmm.code_budget <- Some 1500;
  Hashtbl.replace vmm.pinned 0 ();
  let code = Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2) in
  Alcotest.(check (option int)) "result unchanged" rcode code;
  Alcotest.(check bool) "cast-outs happened" true (vmm.castouts > 0);
  Alcotest.(check bool) "itlb flushed on cast-out" true (vmm.itlb.misses > 0)

let test_itlb_counts () =
  let w = Workloads.Registry.by_name "gcc" in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  let _ = Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2) in
  Alcotest.(check bool) "itlb accessed per cross-page branch" true
    (vmm.itlb.accesses
     >= vmm.stats.cross_direct + vmm.stats.cross_lr + vmm.stats.cross_ctr);
  Alcotest.(check bool) "misses rare once warm" true
    (vmm.itlb.misses * 10 < vmm.itlb.accesses)

let test_console_via_syscall () =
  (* a program printing through sc/putchar, run under DAISY *)
  let open Ppc in
  let mem = Mem.create 0x40000 in
  let a = Asm.create () in
  Workloads.Wl.mini_os a;
  Asm.org a 0x1000;
  Asm.label a "main";
  String.iter
    (fun c ->
      Asm.li a 3 (Char.code c);
      Workloads.Wl.sys_putchar a)
    "daisy";
  Asm.li a 3 0;
  Workloads.Wl.sys_exit a;
  let labels = Asm.assemble a mem in
  let vmm = Vmm.Monitor.create mem in
  let code = Vmm.Monitor.run vmm ~entry:(Hashtbl.find labels "main") ~fuel:100_000 in
  Alcotest.(check (option int)) "exit" (Some 0) code;
  Alcotest.(check string) "console" "daisy" (Mem.output mem);
  (* some syscalls execute inside the post-rfi interpretation episodes,
     so only the first is guaranteed to trap out of translated code *)
  Alcotest.(check bool) "syscalls trapped from translated code" true
    (vmm.stats.syscalls >= 1)

(* Hang semantics: when the reference and the translated run both
   exhaust their fuel, there is no verification point — the executions
   were cut at unrelated places — so [Run.run] reports [None] instead
   of raising [Mismatch] on their incomparable intermediate states. *)
let test_hang_semantics () =
  let spin =
    { Workloads.Wl.name = "spin"; description = "infinite loop (hang test)";
      build =
        (fun a ->
          Ppc.Asm.label a "main";
          Ppc.Asm.b a "main");
      init = (fun _ _ -> ());
      mem_size = Workloads.Wl.default_mem_size; fuel = 5_000 }
  in
  let r = Run.run spin in
  Alcotest.(check (option int)) "both sides out of fuel" None r.exit_code;
  Alcotest.(check bool) "hang is not degradation" false
    (Run.degraded r.stats)

(* The reference running out of fuel leaves no verification point even
   when the VMM, given twice the fuel, halts: [Run.run] reports [None]
   as for a hang instead of raising [Mismatch] on "fuel vs exit". *)
let test_reference_out_of_fuel () =
  let count =
    { Workloads.Wl.name = "count";
      description = "counts past the reference's fuel";
      build =
        (fun a ->
          Ppc.Asm.label a "main";
          Ppc.Asm.li a 3 0;
          Ppc.Asm.label a "loop";
          Ppc.Asm.addi a 3 3 1;
          Ppc.Asm.cmpwi a 3 2000;
          Ppc.Asm.bc a Ppc.Asm.Lt "loop";
          Workloads.Wl.sys_exit a);
      init = (fun _ _ -> ());
      mem_size = Workloads.Wl.default_mem_size; fuel = 5_000 }
  in
  let r = Run.run count in
  Alcotest.(check (option int)) "no verification point" None r.exit_code

let () =
  Alcotest.run "vmm"
    [ ( "workloads",
        [ Alcotest.test_case "golden exit codes" `Quick test_golden_exit_codes;
          Alcotest.test_case "differential: 8-issue" `Quick
            (workload_differential
               { Params.default with config = Vliw.Config.eight_issue });
          Alcotest.test_case "differential: tiny machine" `Quick
            (workload_differential
               { Params.default with config = Vliw.Config.figure_5_1.(0) });
          Alcotest.test_case "differential: 512-byte pages" `Quick
            (workload_differential { Params.default with page_size = 512 });
          Alcotest.test_case "differential: adaptive alias" `Quick
            (workload_differential { Params.default with adaptive_alias = true });
          Alcotest.test_case "differential: no rename" `Quick
            (workload_differential { Params.default with rename = false }) ] );
      ( "features",
        [ Alcotest.test_case "finite-cache run" `Quick test_finite_cache_run;
          Alcotest.test_case "timer transparency" `Quick test_timer_transparency;
          Alcotest.test_case "interrupt every boundary" `Quick
            test_interrupt_every_boundary;
          QCheck_alcotest.to_alcotest prop_boundary_interrupts;
          Alcotest.test_case "adaptive alias" `Quick test_adaptive_alias;
          Alcotest.test_case "cross-page stats" `Quick test_crosspage_stats;
          Alcotest.test_case "small pages" `Quick test_small_pages_crosspage;
          Alcotest.test_case "reuse factors" `Quick test_reuse_factors;
          Alcotest.test_case "bounded translation work" `Quick
            test_translation_work_is_bounded;
          Alcotest.test_case "cast-out pool" `Quick test_castout_pool;
          Alcotest.test_case "itlb" `Quick test_itlb_counts;
          Alcotest.test_case "console via syscall" `Quick test_console_via_syscall;
          Alcotest.test_case "hang semantics" `Quick test_hang_semantics;
          Alcotest.test_case "reference out of fuel" `Quick
            test_reference_out_of_fuel ] ) ]
