(* Tests for the fault-injection framework and the degradation ladder:
   every injector class fired at full tilt against the whole workload
   registry still verifies bit-exact against the reference interpreter
   (that check lives inside [Vmm.Run.run] itself), with the matching
   ladder counters engaged; the differential fuzzer is deterministic
   from its seed, its clean and fault-cocktail corpora are
   mismatch-free, and the shrinker/reproducer machinery round-trips. *)

module Inject = Fault.Inject
module Fuzz = Fault.Fuzz
module Run = Vmm.Run
module T = Vliw.Tree

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_fault.%d.%d" (Unix.getpid ()) !n)
    in
    Tcache.Store.mkdir_p d;
    d

(* Run one workload with an injector attached.  [Run.run] raises
   {!Run.Mismatch} if the faulted execution diverges from the reference
   interpreter in any observable way, so merely returning is the
   compatibility assertion. *)
let run_with ?tcache_dir (cfg : Inject.config) w =
  let inj = Inject.create cfg in
  let r = Run.run ?tcache_dir ~instrument:(Inject.attach inj) w in
  (r, inj)

let sum_registry cfg f =
  List.fold_left
    (fun acc w ->
      let r, inj = run_with cfg w in
      acc + f r inj)
    0 Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Injector classes, one at a time, across the registry                *)

let test_quiet_is_noop () =
  let r, inj = run_with Inject.quiet (Workloads.Registry.by_name "wc") in
  Alcotest.(check int) "nothing fired" 0 (Inject.total inj);
  Alcotest.(check bool) "not degraded" false (Run.degraded r.stats);
  Alcotest.(check (option int)) "golden exit" (Some 4691) r.exit_code

let test_translator_faults () =
  let cfg = { Inject.quiet with translator_fault_rate = 1.0 } in
  let quarantines =
    sum_registry cfg (fun r inj ->
        Alcotest.(check bool) (r.name ^ ": injector fired") true
          (inj.n_translator > 0);
        Alcotest.(check bool) (r.name ^ ": faults counted") true
          (r.stats.translator_faults > 0);
        Alcotest.(check bool) (r.name ^ ": degraded") true
          (Run.degraded r.stats);
        r.stats.quarantines)
  in
  Alcotest.(check bool) "quarantines engaged" true (quarantines > 0)

let test_translator_pins_to_interp () =
  (* every translation attempt crashes: the ladder must end with the
     pages pinned to interpretation and the run still bit-exact *)
  let cfg = { Inject.quiet with translator_fault_rate = 1.0 } in
  let r, _ = run_with cfg (Workloads.Registry.by_name "wc") in
  Alcotest.(check (option int)) "correct exit, fully interpreted"
    (Some 4691) r.exit_code;
  Alcotest.(check int) "no VLIW ever executed" 0 r.stats.vliws;
  Alcotest.(check bool) "pages pinned" true (r.stats.interp_pinned >= 1)

let test_bitflips () =
  let cfg = { Inject.quiet with bitflip_rate = 1.0 } in
  let exec_faults =
    sum_registry cfg (fun r inj ->
        Alcotest.(check bool) (r.name ^ ": flips injected") true
          (inj.n_bitflips > 0);
        r.stats.exec_faults)
  in
  (* every flip is detectable by construction (open tip / bad CR bit),
     either eagerly by the digest check or lazily by the datapath *)
  Alcotest.(check bool) "corruptions caught" true (exec_faults > 0)

let test_interrupts_transparent () =
  let cfg = { Inject.quiet with interrupt_rate = 0.05 } in
  let delivered =
    sum_registry cfg (fun r inj ->
        Alcotest.(check int) (r.name ^ ": every firing delivered")
          inj.n_interrupts r.stats.external_interrupts;
        Alcotest.(check bool) (r.name ^ ": interrupts are not degradation")
          false (Run.degraded r.stats);
        r.stats.external_interrupts)
  in
  Alcotest.(check bool) "interrupts delivered somewhere" true (delivered > 0)

let test_storms () =
  let cfg = { Inject.quiet with storm_rate = 0.01 } in
  let checked =
    sum_registry cfg (fun r inj ->
        if inj.n_storms > 0 then begin
          (* each storm forces at least one rollback + interpretation
             episode, and a masked storm is not a degradation *)
          Alcotest.(check bool) (r.name ^ ": rollbacks") true
            (r.stats.rollbacks >= inj.n_storms);
          Alcotest.(check bool) (r.name ^ ": episodes") true
            (r.stats.interp_episodes > 0);
          1
        end
        else 0)
  in
  Alcotest.(check bool) "storms fired somewhere" true (checked > 0)

let test_tcache_poison () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "wc" in
  let cfg = { Inject.quiet with tcache_poison_rate = 1.0 } in
  let cold, inj = run_with ~tcache_dir:dir cfg w in
  Alcotest.(check bool) "entries poisoned" true (inj.n_poisoned > 0);
  Alcotest.(check (option int)) "cold exit" (Some 4691) cold.exit_code;
  (* warm start against the poisoned store: the codec rejects the
     flipped entries and the VMM retranslates *)
  let warm = Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "corruption detected on warm start" true
    (warm.stats.tcache_corrupt > 0);
  Alcotest.(check (option int)) "warm exit" (Some 4691) warm.exit_code;
  ignore (Tcache.Store.clear_dir dir)

let test_tcache_quarantine_self_heals () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "wc" in
  let cold = Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "entries persisted" true
    (cold.stats.tcache_persists > 0);
  (* truncate one entry mid-file: a torn write / partial disk failure *)
  let victim =
    Filename.concat dir (List.hd (Fsio.files_with_suffix dir ".dtc"))
  in
  let s = In_channel.with_open_bin victim In_channel.input_all in
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_string oc (String.sub s 0 (String.length s / 2)));
  (* warm start: the corrupt entry is detected, QUARANTINED (set aside
     as .dtc.bad, off the probe path), and retranslated — the run
     itself still verifies *)
  let warm = Run.run ~tcache_dir:dir w in
  Alcotest.(check bool) "corruption detected" true
    (warm.stats.tcache_corrupt > 0);
  Alcotest.(check bool) "corrupt entry quarantined" true
    (warm.stats.tcache_quarantined > 0);
  Alcotest.(check (option int)) "warm run still verifies" (Some 4691)
    warm.exit_code;
  Alcotest.(check bool) "quarantine file set aside for post-mortem" true
    (Fsio.files_with_suffix dir ".dtc.bad" <> []);
  (* the retranslation was re-persisted: a third run is fully warm *)
  let healed = Run.run ~tcache_dir:dir w in
  Alcotest.(check int) "healed run sees no corruption" 0
    healed.stats.tcache_corrupt;
  Alcotest.(check int) "healed run translates nothing" 0
    healed.pages_translated;
  ignore (Tcache.Store.clear_dir dir)

let test_cocktail_registry () =
  (* the acceptance gate: every class at a nonzero rate, all eight
     workloads, all verifying identically *)
  let fired =
    sum_registry Inject.cocktail (fun _ inj -> Inject.total inj)
  in
  Alcotest.(check bool) "cocktail fired across the registry" true (fired > 0)

(* ------------------------------------------------------------------ *)
(* The detectability contract behind the bit-flip class                *)

let test_open_tip_raises () =
  let v = T.create ~id:0 ~precise_entry:0x1000 in
  (* root left Open: reaching it must raise, not execute garbage *)
  let st = Vliw.Vstate.create (Ppc.Machine.create ()) in
  (match Vliw.Exec.run st (Ppc.Mem.create 0x1000) v with
  | _ -> Alcotest.fail "open tip executed"
  | exception Vliw.Exec.Error _ -> ())

let test_bad_cr_bit_raises () =
  let v = T.create ~id:0 ~precise_entry:0x1000 in
  let taken, fall = T.split (T.root v) { bit = 97; sense = true } in
  T.close taken (T.OffPage 0x2000);
  T.close fall (T.OffPage 0x3000);
  let st = Vliw.Vstate.create (Ppc.Machine.create ()) in
  (match Vliw.Exec.run st (Ppc.Mem.create 0x1000) v with
  | _ -> Alcotest.fail "out-of-range CR bit evaluated"
  | exception Vliw.Exec.Error _ -> ())

let test_degraded_mapping () =
  let clean = Run.run (Workloads.Registry.by_name "wc") in
  Alcotest.(check bool) "clean run not degraded" false
    (Run.degraded clean.stats);
  let pinned, _ =
    run_with
      { Inject.quiet with translator_fault_rate = 1.0 }
      (Workloads.Registry.by_name "wc")
  in
  Alcotest.(check bool) "pinned run degraded" true (Run.degraded pinned.stats)

(* ------------------------------------------------------------------ *)
(* The differential fuzzer                                             *)

let verdicts (s : Fuzz.summary) =
  List.map (fun (o : Fuzz.outcome) -> o.verdict) s.outcomes

let test_fuzz_deterministic () =
  let a = Fuzz.fuzz ~seed:5 ~pages:30 () in
  let b = Fuzz.fuzz ~seed:5 ~pages:30 () in
  Alcotest.(check bool) "same verdicts from same seed" true
    (verdicts a = verdicts b);
  Alcotest.(check int) "counts partition the corpus" a.pages
    (a.matched + a.hung + a.mismatched);
  let c = Fuzz.fuzz ~faults:Inject.cocktail ~seed:5 ~pages:15 () in
  let d = Fuzz.fuzz ~faults:Inject.cocktail ~seed:5 ~pages:15 () in
  Alcotest.(check bool) "deterministic under injection too" true
    (verdicts c = verdicts d)

let test_fuzz_clean_corpus () =
  let s = Fuzz.fuzz ~seed:1 ~pages:120 () in
  Alcotest.(check int) "no mismatches" 0 s.mismatched;
  Alcotest.(check bool) "mostly matched" true (s.matched > s.hung)

let test_fuzz_cocktail_corpus () =
  let s = Fuzz.fuzz ~faults:Inject.cocktail ~seed:2 ~pages:60 () in
  Alcotest.(check int) "no mismatches under injection" 0 s.mismatched

(* ------------------------------------------------------------------ *)
(* Shrinking and reproducers                                           *)

let test_shrinker () =
  let mk i = Fuzz.Op (Ppc.Insn.Addi (3, 3, i)) in
  let slots = Array.init 20 mk in
  (* pretend only slots 7 and 13 matter: the shrinker must nop out
     everything else and keep exactly those two *)
  let still (s : Fuzz.slot array) =
    s.(7) <> Fuzz.Op Fuzz.nop && s.(13) <> Fuzz.Op Fuzz.nop
  in
  let small = Fuzz.shrink ~still slots in
  Array.iteri
    (fun i s ->
      if i = 7 || i = 13 then
        Alcotest.(check bool) (Printf.sprintf "slot %d kept" i) true
          (s = mk i)
      else
        Alcotest.(check bool) (Printf.sprintf "slot %d nopped" i) true
          (s = Fuzz.Op Fuzz.nop))
    small

let test_reproducer_roundtrip () =
  let dir = fresh_dir () in
  let seed = 77 and index = 3 and fuel = 50_000 in
  let rng = Random.State.make [| seed; index; 0 |] in
  let slots = Fuzz.gen_slots rng ~insns:48 ~allow_raw:true in
  let path =
    Fuzz.write_reproducer ~dir ~seed ~index ~fuel ~message:"round-trip" slots
  in
  let seed', index', fuel', slots', workload = Fuzz.read_reproducer path in
  Alcotest.(check int) "seed" seed seed';
  Alcotest.(check int) "index" index index';
  Alcotest.(check int) "fuel" fuel fuel';
  Alcotest.(check (option string)) "no workload" None workload;
  Alcotest.(check bool) "same words" true
    (Array.map Fuzz.slot_word slots = Array.map Fuzz.slot_word slots');
  (* replaying the file reaches the same verdict as the original run *)
  let direct = Fuzz.run_slots ~seed ~index ~fuel slots in
  let replayed = Fuzz.replay path in
  Alcotest.(check bool) "replay verdict matches" true (direct = replayed);
  Sys.remove path

let () =
  Alcotest.run "fault"
    [ ( "injectors",
        [ Alcotest.test_case "quiet config is a no-op" `Quick
            test_quiet_is_noop;
          Alcotest.test_case "translator faults" `Slow test_translator_faults;
          Alcotest.test_case "pin to interpretation" `Quick
            test_translator_pins_to_interp;
          Alcotest.test_case "bit-flips" `Slow test_bitflips;
          Alcotest.test_case "spurious interrupts" `Slow
            test_interrupts_transparent;
          Alcotest.test_case "page-fault storms" `Slow test_storms;
          Alcotest.test_case "tcache poisoning" `Quick test_tcache_poison;
          Alcotest.test_case "tcache quarantine self-heals" `Quick
            test_tcache_quarantine_self_heals;
          Alcotest.test_case "full cocktail" `Slow test_cocktail_registry ] );
      ( "detectability",
        [ Alcotest.test_case "open tip raises" `Quick test_open_tip_raises;
          Alcotest.test_case "bad CR bit raises" `Quick test_bad_cr_bit_raises;
          Alcotest.test_case "degraded mapping" `Quick test_degraded_mapping ]
      );
      ( "fuzzer",
        [ Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "clean corpus" `Slow test_fuzz_clean_corpus;
          Alcotest.test_case "cocktail corpus" `Slow test_fuzz_cocktail_corpus
        ] );
      ( "reproducers",
        [ Alcotest.test_case "shrinker" `Quick test_shrinker;
          Alcotest.test_case "round-trip" `Quick test_reproducer_roundtrip ]
      ) ]
