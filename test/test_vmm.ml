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

(* The cache model's counts are pinned exactly: the c_sieve row on the
   8-issue machine covers the store-miss path. *)
let test_finite_cache_run () =
  let counts ?params name hierarchy =
    let r = Run.run ?params ~hierarchy (Workloads.Registry.by_name name) in
    Alcotest.(check bool) "finite <= infinite ILP" true
      (r.ilp_fin <= r.ilp_inf);
    [ r.stats.cache_stalls; r.stats.imiss; r.stats.load_misses;
      r.stats.store_misses; r.cycles_finite ]
  in
  Alcotest.(check (list int)) "compress, 24-issue"
    [ 35628; 21; 306; 286; 238766 ]
    (counts "compress" (Memsys.Hierarchy.paper_24issue ()));
  Alcotest.(check (list int)) "c_sieve, 8-issue"
    [ 214924; 117; 1620; 50790; 757804 ]
    (counts
       ~params:{ Params.default with config = Vliw.Config.eight_issue }
       "c_sieve" (Memsys.Hierarchy.paper_8issue ()))

(* External interrupts through the fault hook: delivered at a VLIW-tree
   boundary, they must be architecturally invisible.  [Run.run] diffs
   registers, memory and console against the pure interpreter; the mini
   OS's interrupt counter must exceed the reference's by exactly the
   interrupts delivered.  The hook must not
   fire on the immediate re-entry after delivery — the interrupted VLIW
   has not executed yet, so re-firing forever would (correctly) starve
   the run.  The toggle interrupts every executed VLIW boundary exactly
   once; the qcheck property generalises to every Nth poll. *)
let boundary_run fire =
  let w = Workloads.Registry.by_name "wc" in
  let captured = ref None in
  let r =
    Run.run
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

(* The counter check is exact: an increment no delivered interrupt
   accounts for — one bump of the counter word behind the guest's back,
   in a run that does take interrupts — fails verification, where the
   same run unbumped verifies ("interrupt every boundary"). *)
let test_interrupt_count_exact () =
  let w = Workloads.Registry.by_name "wc" in
  let armed = ref false in
  match
    Run.run
      ~instrument:(fun vmm ->
        vmm.boundary_hook <- Some (fun () -> armed := not !armed; !armed);
        let b = vmm.mem.bytes and addr = Workloads.Wl.interrupt_count_addr in
        Bytes.set_int32_be b addr (Int32.succ (Bytes.get_int32_be b addr)))
      w
  with
  | exception Run.Mismatch _ -> ()
  | _ -> Alcotest.fail "an unaccounted counter increment verified"

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

(* A run with no hooks allocates nothing per executed VLIW: c_sieve
   stopped by fuel after 100,000 and after 400,000 VLIWs allocates the
   same minor words, all of it translation and staging (its loop is
   translated well inside the first 100,000). *)
let test_no_alloc_per_vliw () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let words fuel =
    let mem, entry = Workloads.Wl.instantiate w in
    let vmm = Vmm.Monitor.create mem in
    let w0 = Gc.minor_words () in
    let code = Vmm.Monitor.run vmm ~entry ~fuel in
    let w1 = Gc.minor_words () in
    Alcotest.(check (option int)) "stopped by fuel" None code;
    w1 -. w0
  in
  let short = words 100_000 in
  let long = words 400_000 in
  Alcotest.(check (float 0.)) "minor words" short long

(* Recovery clears every non-architected location, so whatever a
   rolled-back VLIW wrote into the pool in place is gone before anything
   runs again: at the start of every interpretation episode of sort
   (2,311 alias rollbacks) and of a fault-cocktail fuzz corpus, the pool
   values, extender bits, tags, pool condition fields and their tags
   are all zero. *)
let test_recovery_clears_pool () =
  let episodes = ref 0 and dirty = ref 0 in
  let watch (vmm : Vmm.Monitor.t) =
    let st = vmm.st in
    Vmm.Monitor.on_event vmm (function
      | Vmm.Monitor.Interp_begin _ ->
        incr episodes;
        if
          not
            (Array.for_all (( = ) 0) st.hi
            && Array.for_all not st.ext
            && Array.for_all (( = ) 0) st.tags
            && Array.for_all (( = ) 0) st.crhi
            && Array.for_all (( = ) 0) st.crtags)
        then incr dirty
      | _ -> ())
  in
  let r = Run.run ~instrument:watch (Workloads.Registry.by_name "sort") in
  Alcotest.(check int) "sort: alias rollbacks" 2311 r.stats.rollbacks;
  Alcotest.(check int) "sort: episodes seen" r.stats.interp_episodes !episodes;
  let s =
    Fault.Fuzz.fuzz ~faults:Fault.Inject.cocktail ~attach_extra:watch ~seed:2
      ~pages:60 ()
  in
  Alcotest.(check int) "cocktail corpus mismatches" 0 s.mismatched;
  Alcotest.(check bool) "episodes" true (!episodes > r.stats.interp_episodes);
  Alcotest.(check int) "episodes entered with a dirty pool" 0 !dirty

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

(* Staging follows execution: every program stages some of its trees,
   and none stages all of them. *)
let test_stages_only_trees_that_run () =
  List.iter
    (fun (w : Workloads.Wl.t) ->
      let r = Run.run w in
      let staged = r.stats.staged_trees and made = r.totals.vliws_made in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 < %d staged < %d made" w.name staged made)
        true
        (0 < staged && staged < made))
    Workloads.Registry.all

(* An in-place extension appends records for the new trees and leaves
   the page's old records alone: a staged tree is the same record and
   stays staged, an extension stages nothing, and the translator leaves
   every old tree structurally unchanged. *)
let test_extension_keeps_staged_trees () =
  let module C = Vliw.Compile in
  let module Translate = Translator.Translate in
  let w = Workloads.Registry.by_name "wc" in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  ignore (Vmm.Monitor.run vmm ~entry ~fuel:2_000);
  let base = Translate.page_base vmm.tr entry in
  let xp, cp = Hashtbl.find vmm.compiled base in
  let n = C.n_trees cp in
  let before = Array.init n (C.get cp) in
  let was_staged = Array.map (fun (cv : C.cvliw) -> cv.staged) before in
  let shape (cv : C.cvliw) = Marshal.to_string cv.c_tree [] in
  let shapes = Array.map shape before in
  Alcotest.(check bool) "some trees staged" true (Array.mem true was_staged);
  Alcotest.(check bool) "some trees unstaged" true (Array.mem false was_staged);
  let staged0 = vmm.stats.staged_trees in
  (* the first word of the page that is not an entry point yet *)
  let rec fresh addr =
    if Translate.has_entry vmm.tr addr then fresh (addr + 4) else addr
  in
  let xp', _ = Translate.entry vmm.tr (fresh base) in
  Alcotest.(check bool) "extended in place" true (xp' == xp);
  Alcotest.(check bool) "new trees" true (Translator.Vec.length xp.vliws > n);
  Alcotest.(check bool) "same staged page" true
    (Vmm.Monitor.compiled_for vmm xp == cp);
  Alcotest.(check int) "records for every tree"
    (Translator.Vec.length xp.vliws) (C.n_trees cp);
  Array.iteri
    (fun i (cv : C.cvliw) ->
      Alcotest.(check bool) (Printf.sprintf "tree %d: same record" i) true
        (C.get cp i == cv);
      Alcotest.(check bool) (Printf.sprintf "tree %d: staging kept" i)
        was_staged.(i) cv.staged;
      Alcotest.(check string) (Printf.sprintf "tree %d: unchanged" i)
        shapes.(i) (shape cv))
    before;
  for i = n to C.n_trees cp - 1 do
    Alcotest.(check bool) (Printf.sprintf "new tree %d unstaged" i) false
      (C.get cp i).staged
  done;
  Alcotest.(check int) "nothing staged twice" staged0 vmm.stats.staged_trees

(* A warm run decodes a cached tree's body when the tree first stages
   and at no other time: with no injector attached (its digests encode
   whole pages), the roots forced on the installed pages are exactly
   the trees staged. *)
let test_warm_decodes_staged_trees () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_test_vmm_warm.%d" (Unix.getpid ()))
  in
  List.iter
    (fun (w : Workloads.Wl.t) ->
      ignore (Tcache.Store.clear_dir dir);
      ignore (Run.run ~tcache_dir:dir w);
      let vmm = ref None in
      let r = Run.run ~tcache_dir:dir ~instrument:(fun v -> vmm := Some v) w in
      let forced =
        Hashtbl.fold
          (fun _ (xp : Translator.Translate.xpage) n ->
            Translator.Vec.fold
              (fun n (v : Vliw.Tree.t) ->
                if Lazy.is_val v.root then n + 1 else n)
              n xp.vliws)
          (Option.get !vmm).tr.pages 0
      in
      Alcotest.(check int) (w.name ^ ": warm run translated") 0
        r.pages_translated;
      Alcotest.(check int) (w.name ^ ": roots forced = trees staged")
        r.stats.staged_trees forced)
    Workloads.Registry.all;
  ignore (Tcache.Store.clear_dir dir)

(* Invalid load/store-with-update forms follow the interpreter, which
   is the specification of "compatible": the base is (rA|0), and for
   lwzu with rA = rD the update wins over the loaded word.  [Run.run]
   compares every register and all of memory; [sys_exit] clears r0, so
   r0 is copied to r5 first. *)
let update_form (body : Ppc.Asm.t -> unit) () =
  let open Ppc in
  let w =
    { Workloads.Wl.name = "update-form"; description = "invalid update form";
      build =
        (fun a ->
          Asm.label a "main";
          body a;
          Asm.mr a 5 0;
          Asm.li a 3 0;
          Workloads.Wl.sys_exit a);
      init =
        (fun mem _ ->
          (* words that are addresses of zeros, so a load through a
             wrong base reads in bounds and diverges instead of
             faulting into the interpreter *)
          for i = 0 to 31 do
            Mem.store32 mem (0x7000 + (4 * i)) (0x7100 + (4 * i))
          done);
      mem_size = Workloads.Wl.default_mem_size; fuel = 1_000 }
  in
  let r = Run.run w in
  Alcotest.(check (option int)) "exit" (Some 0) r.exit_code;
  Alcotest.(check int) "nothing interpreted" 0 r.stats.interp_insns

let lwzu_ra0 a =
  Ppc.Asm.li a 0 0x1234;
  Ppc.Asm.ins a (Lwzu (4, 0, 0x7000))

let stwu_ra0 a =
  Ppc.Asm.li a 0 0x1234;
  Ppc.Asm.li a 6 77;
  Ppc.Asm.ins a (Stwu (6, 0, 0x7000))

let lwzu_ra_rd a =
  Ppc.Asm.li a 7 0x7000;
  Ppc.Asm.ins a (Lwzu (7, 7, 4))

(* lmw computes its address once, so loading rA midway through the
   range does not move the later loads *)
let lmw_ra_in_range a =
  Ppc.Asm.li a 30 0x7000;
  Ppc.Asm.ins a (Lmw (29, 30, 0))

(* all 32 registers: 32 loads fill the renamed-register pool, so the
   cracking may not add a temporary *)
let lmw_r0_ra_in_range a =
  Ppc.Asm.li a 18 0x7000;
  Ppc.Asm.ins a (Lmw (0, 18, 0))

(* The counter table declares every [stats] field exactly once: one row
   per record field, no name twice.  A field added without a row fails
   here. *)
let test_counter_table () =
  let module M = Vmm.Monitor in
  let names =
    List.map (fun (r : int M.row) -> r.name) M.counters
    @ List.map (fun (r : float M.row) -> r.name) M.timings
  in
  Alcotest.(check int) "one row per stats field"
    (Obj.size (Obj.repr (M.fresh_stats ())))
    (List.length names);
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* A page whose entry trees carry an op with a destination outside
   every class — a speculative I/O-space load, which would tag the
   architected r5, or a commit to r70 — faults when the op evaluates:
   the VLIW writes nothing, the ladder takes a strike and interprets,
   and the run ends as the reference does instead of raising.  Only the
   first page installed is altered, so the retranslation is clean. *)
let test_refused_destination () =
  let module Op = Vliw.Op in
  List.iter
    (fun (what, op) ->
      let first = ref true in
      let instrument (vmm : Vmm.Monitor.t) =
        vmm.install_hook <-
          Some
            (fun (p : Translator.Translate.xpage) ->
              if !first then begin
                first := false;
                Hashtbl.iter
                  (fun _ id ->
                    let root = Vliw.Tree.root (Translator.Vec.get p.vliws id) in
                    root.ops <- (0, op) :: root.ops)
                  p.entries
              end)
      in
      let r = Run.run ~instrument (Workloads.Registry.by_name "wc") in
      Alcotest.(check (option int)) (what ^ ": exit code") (Some 4691) r.exit_code;
      Alcotest.(check bool) (what ^ ": exec faults") true (r.stats.exec_faults >= 1))
    [ ( "speculative load into r5",
        Op.LoadOp { w = Word; alg = false; rt = 5; base = Op.zero;
                    off = OImm Ppc.Mem.mmio_seq; spec = true; passed = false } );
      ("commit to r70", Op.CommitG { arch = 70; src = 3 }) ]

(* A cracking that cannot be placed even in a fresh VLIW: [lmw r0]
   through a temporary base needs 33 renamed registers, one more than
   the pool.  The group that starts with it must trap to the
   interpreter, not jump to itself until the fuel runs out. *)
let test_unplaceable_first_insn () =
  let open Ppc in
  let lmw = Encode.encode (Lmw (0, 18, 0)) in
  let ppc = Translator.Frontend.ppc in
  let frontend =
    { ppc with
      decode_crack =
        (fun mem pc ->
          match Mem.fetch mem pc with
          | w when w = lmw ->
            let load r =
              Translator.Crack.PLoad
                { w = Word; alg = false; dst = Gpr r; base = TmpG 0;
                  off = OffImm (4 * r) }
            in
            Some
              ( Translator.Crack.plain
                  (PBinI { op = IAdd; dst = TmpG 0; a = Gpr 18; imm = 0 }
                  :: List.init 32 load),
                4 )
          | _ | (exception Mem.Data_fault _) -> ppc.decode_crack mem pc) }
  in
  let w =
    { Workloads.Wl.name = "no-pool"; description = "unplaceable cracking";
      build =
        (fun a ->
          Asm.label a "main";
          Asm.li a 18 0x7000;
          Asm.ins a (Lmw (0, 18, 0));
          Asm.mr a 3 31;
          Workloads.Wl.sys_exit a);
      init = (fun mem _ -> Mem.store32 mem (0x7000 + (4 * 31)) 42);
      mem_size = Workloads.Wl.default_mem_size; fuel = 1_000 }
  in
  let want, _, _, _ = Run.reference w in
  Alcotest.(check (option int)) "reference exit" (Some 42) want;
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create ~frontend mem in
  Alcotest.(check (option int)) "exit within 2,000 VLIWs" want
    (Vmm.Monitor.run vmm ~entry ~fuel:2_000)

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
          Alcotest.test_case "interrupt every boundary" `Quick
            test_interrupt_every_boundary;
          Alcotest.test_case "interrupt count is exact" `Quick
            test_interrupt_count_exact;
          QCheck_alcotest.to_alcotest prop_boundary_interrupts;
          Alcotest.test_case "adaptive alias" `Quick test_adaptive_alias;
          Alcotest.test_case "cross-page stats" `Quick test_crosspage_stats;
          Alcotest.test_case "small pages" `Quick test_small_pages_crosspage;
          Alcotest.test_case "reuse factors" `Quick test_reuse_factors;
          Alcotest.test_case "bounded translation work" `Quick
            test_translation_work_is_bounded;
          Alcotest.test_case "cast-out pool" `Quick test_castout_pool;
          Alcotest.test_case "itlb" `Quick test_itlb_counts;
          Alcotest.test_case "recovery clears the pool" `Quick
            test_recovery_clears_pool;
          Alcotest.test_case "no allocation per VLIW" `Quick
            test_no_alloc_per_vliw;
          Alcotest.test_case "counter table" `Quick test_counter_table;
          Alcotest.test_case "stages only trees that run" `Quick
            test_stages_only_trees_that_run;
          Alcotest.test_case "extension keeps staged trees" `Quick
            test_extension_keeps_staged_trees;
          Alcotest.test_case "warm runs decode only staged trees" `Quick
            test_warm_decodes_staged_trees;
          Alcotest.test_case "console via syscall" `Quick test_console_via_syscall;
          Alcotest.test_case "hang semantics" `Quick test_hang_semantics;
          Alcotest.test_case "reference out of fuel" `Quick
            test_reference_out_of_fuel;
          Alcotest.test_case "refused destination is an exec fault" `Quick
            test_refused_destination ] );
      ( "update forms",
        [ Alcotest.test_case "lwzu rA = 0" `Quick (update_form lwzu_ra0);
          Alcotest.test_case "stwu rA = 0" `Quick (update_form stwu_ra0);
          Alcotest.test_case "lwzu rA = rD" `Quick (update_form lwzu_ra_rd);
          Alcotest.test_case "lmw rA in range" `Quick
            (update_form lmw_ra_in_range);
          Alcotest.test_case "lmw r0, rA in range" `Quick
            (update_form lmw_r0_ra_in_range);
          Alcotest.test_case "unplaceable first instruction" `Quick
            test_unplaceable_first_insn ] ) ]
