(* Differential fuzzing of the 100%-compatibility claim.

   Pages of random (but structured) base-architecture code are run
   through the reference interpreter and the full VMM — optionally with
   fault injection — and the final architected state, memory image and
   console output are compared bit-for-bit by {!Vmm.Run.run}.  Any
   divergence is shrunk to a minimal reproducer (greedy nop-out) and
   written to disk with enough header information to replay it exactly.

   The generator is seeded: page [i] of [--seed s] is always the same
   program, its initial register values and its input data included, so
   a failure report is reproducible from two integers.

   Generated pages are biased toward termination — forward-only
   conditional branches, counted loops that exit when entered sideways,
   loads and stores confined to the data and scratch windows — but a
   small budget of completely random raw words keeps the decoder, the
   translator's illegal-instruction paths and the mini OS's interrupt
   vectors honest.  Raw words are withheld when external interrupts are
   being injected: a random [mfspr] could copy SRR0/SRR1 — which a
   transparent interrupt legitimately clobbers — into compared state. *)

open Ppc
module Wl = Workloads.Wl

(* Each slot assembles to exactly one 32-bit word, so branch
   displacements are computable at generation time as 4 * (slot
   distance) and survive shrinking (slots are replaced by nops, never
   removed). *)
type slot =
  | Op of Insn.t
  | Raw of int  (** an arbitrary word, decoded like any other memory *)

(** The true PowerPC no-op. *)
let nop = Insn.Ori (0, 0, 0)

type verdict =
  | Match            (** ran to completion, every comparison passed *)
  | Hang             (** the reference ran out of fuel: nothing to verify *)
  | Mismatch of string

type outcome = {
  index : int;
  verdict : verdict;
  reproducer : string option;  (** path of the shrunk reproducer, if any *)
}

(* ------------------------------------------------------------------ *)
(* Page generation                                                     *)

(* Register conventions inside a generated page:
   r0        syscall selector only
   r1        scratch window base   r2   data window base
   r3..r10   play registers (randomly initialised, freely clobbered)
   r11       loop counters (always left at 0) *)

let word32 rng =
  (Random.State.int rng 0x10000 lsl 16) lor Random.State.int rng 0x10000

let gen_slots rng ~insns ~allow_raw =
  let n = insns in
  let slots = Array.make n (Op nop) in
  let i = ref 0 in
  let emit s = slots.(!i) <- s; incr i in
  let play () = 3 + Random.State.int rng 8 in
  let simm () = Random.State.int rng 0x10000 - 0x8000 in
  let uimm () = Random.State.int rng 0x10000 in
  let base () = 1 + Random.State.int rng 2 in
  let alu_imm () =
    match Random.State.int rng 6 with
    | 0 -> Insn.Addi (play (), play (), simm ())
    | 1 -> Insn.Addis (play (), play (), simm ())
    | 2 -> Insn.Ori (play (), play (), uimm ())
    | 3 -> Insn.Xori (play (), play (), uimm ())
    | 4 -> Insn.Andi (play (), play (), uimm ())
    | _ -> Insn.Mulli (play (), play (), Random.State.int rng 256 - 128)
  in
  while !i < n do
    let remaining = n - !i in
    let r = Random.State.int rng 100 in
    if r < 26 then emit (Op (alu_imm ()))
    else if r < 46 then begin
      (* register-register ALU; rc bits exercise the CR datapath *)
      let rc = Random.State.bool rng in
      match Random.State.int rng 8 with
      | 0 ->
        let op =
          match Random.State.int rng 6 with
          | 0 -> Insn.Add | 1 -> Insn.Subf | 2 -> Insn.Mullw
          | 3 -> Insn.Divw | 4 -> Insn.Divwu | _ -> Insn.Neg
        in
        emit (Op (Insn.Xo (op, play (), play (), play (), rc)))
      | 1 | 2 ->
        let op =
          match Random.State.int rng 6 with
          | 0 -> Insn.And_ | 1 -> Insn.Or_ | 2 -> Insn.Xor_
          | 3 -> Insn.Slw | 4 -> Insn.Srw | _ -> Insn.Sraw
        in
        emit (Op (Insn.X (op, play (), play (), play (), rc)))
      | 3 ->
        let op =
          match Random.State.int rng 3 with
          | 0 -> Insn.Cntlzw | 1 -> Insn.Extsb | _ -> Insn.Extsh
        in
        emit (Op (Insn.X1 (op, play (), play (), rc)))
      | 4 -> emit (Op (Insn.Srawi (play (), play (), Random.State.int rng 32, rc)))
      | _ ->
        emit
          (Op
             (Insn.Rlwinm
                ( play (), play (), Random.State.int rng 32,
                  Random.State.int rng 32, Random.State.int rng 32, rc )))
    end
    else if r < 54 then
      (* compares feed the conditional branches; CR fields 0 and 1 only,
         so generated [Bc] bits stay within what compares actually set *)
      (match Random.State.int rng 4 with
      | 0 -> emit (Op (Insn.Cmpi (Random.State.int rng 2, play (), simm ())))
      | 1 -> emit (Op (Insn.Cmpli (Random.State.int rng 2, play (), uimm ())))
      | 2 -> emit (Op (Insn.Cmp (Random.State.int rng 2, play (), play ())))
      | _ -> emit (Op (Insn.Cmpl (Random.State.int rng 2, play (), play ()))))
    else if r < 58 then begin
      let op =
        match Random.State.int rng 4 with
        | 0 -> Insn.Cror | 1 -> Insn.Crxor | 2 -> Insn.Crand | _ -> Insn.Crnor
      in
      emit
        (Op
           (Insn.Crop
              ( op, Random.State.int rng 8, Random.State.int rng 8,
                Random.State.int rng 8 )))
    end
    else if r < 68 then
      (* loads confined to the scratch/data windows *)
      (match Random.State.int rng 3 with
      | 0 ->
        emit
          (Op (Insn.Load (Word, false, play (), base (), 4 * Random.State.int rng 64)))
      | 1 ->
        emit
          (Op
             (Insn.Load
                ( Half, Random.State.bool rng, play (), base (),
                  2 * Random.State.int rng 128 )))
      | _ ->
        emit (Op (Insn.Load (Byte, false, play (), base (), Random.State.int rng 256))))
    else if r < 78 then
      (match Random.State.int rng 3 with
      | 0 ->
        emit (Op (Insn.Store (Word, play (), base (), 4 * Random.State.int rng 64)))
      | 1 ->
        emit (Op (Insn.Store (Half, play (), base (), 2 * Random.State.int rng 128)))
      | _ -> emit (Op (Insn.Store (Byte, play (), base (), Random.State.int rng 256))))
    else if r < 86 then begin
      (* forward-only branches: the target is a later slot, so straight
         runs terminate; the epilogue starts at slot [n] *)
      let d = 1 + Random.State.int rng (min remaining 12) in
      if Random.State.int rng 3 = 0 then emit (Op (Insn.B (4 * d, false, false)))
      else begin
        let bo = if Random.State.bool rng then Insn.Bo.if_true else Insn.Bo.if_false in
        emit (Op (Insn.Bc (bo, Random.State.int rng 8, 4 * d, false, false)))
      end
    end
    else if r < 90 && remaining >= 8 then begin
      (* a counted loop that is safe to enter sideways: it spins while
         r11 > 0 (signed), so a stray forward branch into the body — with
         r11 left at 0 by the previous loop — exits after one pass *)
      let body = 1 + Random.State.int rng 4 in
      let iters = 1 + Random.State.int rng 8 in
      emit (Op (Insn.Addi (11, 0, iters)));
      for _ = 1 to body do emit (Op (alu_imm ())) done;
      emit (Op (Insn.Addi (11, 11, -1)));
      emit (Op (Insn.Cmpi (1, 11, 0)));
      emit
        (Op
           (Insn.Bc
              ( Insn.Bo.if_true, Insn.Crbit.of_field 1 Insn.Crbit.gt,
                -4 * (body + 2), false, false )))
    end
    else if r < 93 && remaining >= 2 then begin
      (* console output through the mini OS *)
      emit (Op (Insn.Addi (0, 0, 1)));
      emit (Op Insn.Sc)
    end
    else if r < 96 && allow_raw then emit (Raw (word32 rng))
    else emit (Op nop)
  done;
  slots

(* ------------------------------------------------------------------ *)
(* Page -> workload                                                    *)

(** Wrap a slot array as a {!Wl.t}.  The prologue (register and base
    initialisation) and the data-window contents are derived from
    [(seed, index)], so a page is fully described by those two integers
    plus its slots. *)
let wl_of ~seed ~index ~fuel slots =
  let build a =
    let rng = Random.State.make [| seed; index; 1 |] in
    Asm.label a "main";
    Asm.li32 a 1 Wl.scratch_base;
    Asm.li32 a 2 Wl.data_base;
    for r = 3 to 10 do
      Asm.li32 a r (word32 rng)
    done;
    Asm.li a 11 0;
    Array.iter
      (function Op i -> Asm.ins a i | Raw w -> Asm.word a w)
      slots;
    (* epilogue: fold every play register and a sample of both memory
       windows into the exit code, so divergence anywhere surfaces even
       through the single compared word *)
    Asm.xor a 3 3 4;
    Asm.add a 3 3 5;
    Asm.xor a 3 3 6;
    Asm.add a 3 3 7;
    Asm.xor a 3 3 8;
    Asm.add a 3 3 9;
    Asm.xor a 3 3 10;
    Asm.lwz a 4 2 0;
    Asm.xor a 3 3 4;
    Asm.lwz a 4 1 0;
    Asm.add a 3 3 4;
    Wl.sys_exit a
  in
  let init mem _labels =
    let rng = Random.State.make [| seed; index; 2 |] in
    for k = 0 to 255 do
      Mem.store32 mem (Wl.data_base + (4 * k)) (word32 rng)
    done
  in
  { Wl.name = Printf.sprintf "fuzz-%d-%d" seed index;
    description = "generated by daisy fuzz";
    build; init; mem_size = Wl.default_mem_size; fuel }

(* ------------------------------------------------------------------ *)
(* Differential run                                                    *)

(** Run one page through reference interpreter and VMM; [faults], when
    given, attaches every configured injector class (with a per-page
    derived seed, so page verdicts are independent of each other).
    [storage] additionally runs the page against a persistent
    translation cache in the given directory, through a seeded
    disk-fault backend — the verdict must still be [Match]: a lying
    disk may cost retranslation, never correctness.  [storage_fired]
    accumulates how many disk faults actually fired.  [attach_extra]
    attaches additional instrumentation after the injector (the
    guard's shadow verifier, observability sinks). *)
let run_slots ?faults ?storage ?storage_fired ?attach_extra ~seed ~index ~fuel
    slots =
  let w = wl_of ~seed ~index ~fuel slots in
  let ignore_mem, inject =
    match faults with
    | None -> ([], None)
    | Some (cfg : Inject.config) ->
      let inj =
        Inject.create { cfg with seed = cfg.seed lxor (index * 2654435761) }
      in
      ( (if cfg.interrupt_rate > 0. then [ Wl.interrupt_count_addr ] else []),
        Some (Inject.attach inj) )
  in
  (* like the fault injector: a backend seeded from the page index, so
     any page replays exactly *)
  let tcache_dir, tcache_io, storage_inj =
    match storage with
    | None -> (None, None, None)
    | Some (dir, (fc : Fsio.fault_config)) ->
      let io, inj =
        Fsio.faulty { fc with seed = fc.seed lxor (index * 2654435761) }
      in
      (Some dir, Some io, Some inj)
  in
  let instrument =
    match (inject, attach_extra) with
    | None, None -> None
    | _ ->
      Some
        (fun vmm ->
          (match inject with Some f -> f vmm | None -> ());
          match attach_extra with Some f -> f vmm | None -> ())
  in
  let v =
    match Vmm.Run.run ?instrument ~ignore_mem ?tcache_dir ?tcache_io w with
    | r -> if r.exit_code = None then Hang else Match
    | exception Vmm.Run.Mismatch m -> Mismatch m
    | exception e -> Mismatch ("crash: " ^ Printexc.to_string e)
  in
  (match (storage_fired, storage_inj) with
  | Some acc, Some inj -> acc := !acc + Fsio.faults_fired inj
  | _ -> ());
  v

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(** Greedy nop-out to a fixed point: repeatedly blank any slot whose
    removal keeps [still] true.  Slots are replaced, never removed, so
    every branch displacement in the survivors is still meaningful. *)
let shrink ~still slots =
  let slots = Array.copy slots in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i s ->
        if s <> Op nop then begin
          slots.(i) <- Op nop;
          if still slots then changed := true else slots.(i) <- s
        end)
      slots
  done;
  slots

(* ------------------------------------------------------------------ *)
(* Reproducers on disk                                                 *)

let slot_word = function Op i -> Encode.encode i | Raw w -> w land 0xFFFF_FFFF

let write_reproducer ~dir ~seed ~index ~fuel ~message slots =
  Tcache.Store.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "repro-%d-%d.txt" seed index) in
  let oc = open_out path in
  Printf.fprintf oc "# daisy fuzz reproducer: %s\n" message;
  Printf.fprintf oc "# seed %d index %d fuel %d\n" seed index fuel;
  Array.iter
    (fun s ->
      let w = slot_word s in
      match Decode.decode w with
      | Some i -> Printf.fprintf oc "0x%08X  # %s\n" w (Insn.to_string i)
      | None -> Printf.fprintf oc "0x%08X  # <illegal>\n" w)
    slots;
  close_out oc;
  path

exception Bad_reproducer of string

(** Parse a reproducer back into [(seed, index, fuel, slots)].  The
    slots come back as raw words — assembling a word or the instruction
    it decodes to writes the same bytes, so the replayed image is
    bit-identical to the original. *)
let read_reproducer path =
  let ic = open_in path in
  let header = ref None in
  let slots = ref [] in
  (try
     while true do
       let line = input_line ic in
       (try Scanf.sscanf line "# seed %d index %d fuel %d"
              (fun s i f -> header := Some (s, i, f))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ());
       try Scanf.sscanf line "0x%x" (fun w -> slots := Raw w :: !slots)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> close_in ic);
  match !header with
  | None -> raise (Bad_reproducer (path ^ ": missing '# seed I index I fuel I' line"))
  | Some (seed, index, fuel) -> (seed, index, fuel, Array.of_list (List.rev !slots))

(** Re-run a reproducer file; returns its verdict. *)
let replay ?faults ?storage ?attach_extra path =
  let seed, index, fuel, slots = read_reproducer path in
  run_slots ?faults ?storage ?attach_extra ~seed ~index ~fuel slots

(* ------------------------------------------------------------------ *)
(* The corpus driver                                                   *)

type summary = {
  pages : int;
  matched : int;
  hung : int;
  mismatched : int;
  storage_injected : int;  (** disk faults fired by the [storage] backend *)
  outcomes : outcome list;  (** in page order *)
}

(** [fuzz ~seed ~pages ()] generates and differentially runs [pages]
    pages.  [faults] adds injection; [storage] = [(dir, cfg)] runs
    every page against a persistent cache in [dir] through a seeded
    disk-fault backend (`--fault-storage`), holding the compatibility
    claim under lying storage too.  [out_dir], when given, enables
    shrinking and writes one reproducer file per mismatch.  [log] gets
    one line per notable event.  [on_mismatch] fires once per
    mismatching page, before shrinking, while whatever [attach_extra]
    instrumented (e.g. a flight recorder) still holds the failing run's
    tail — the driver uses it to write crash dumps. *)
let fuzz ?faults ?storage ?attach_extra ?on_mismatch ?out_dir ?(insns = 96)
    ?(fuel = 100_000) ?(log = fun (_ : string) -> ()) ~seed ~pages () =
  let allow_raw =
    match faults with
    | Some (f : Inject.config) -> f.interrupt_rate <= 0.
    | None -> true
  in
  let matched = ref 0 and hung = ref 0 and mismatched = ref 0 in
  let storage_fired = ref 0 in
  let outcomes = ref [] in
  for index = 0 to pages - 1 do
    let rng = Random.State.make [| seed; index; 0 |] in
    let slots = gen_slots rng ~insns ~allow_raw in
    let reproducer = ref None in
    let verdict =
      run_slots ?faults ?storage ~storage_fired ?attach_extra ~seed ~index
        ~fuel slots
    in
    (match verdict with
    | Match -> incr matched
    | Hang ->
      incr hung;
      log (Printf.sprintf "page %d: hang (reference out of fuel)" index)
    | Mismatch m ->
      incr mismatched;
      log (Printf.sprintf "page %d: MISMATCH: %s" index m);
      (match on_mismatch with
      | Some f -> f ~index ~message:m
      | None -> ());
      (match out_dir with
      | None -> ()
      | Some dir ->
        let still s =
          match
            run_slots ?faults ?storage ?attach_extra ~seed ~index ~fuel s
          with
          | Mismatch _ -> true
          | Match | Hang -> false
        in
        let small = shrink ~still slots in
        let kept =
          Array.fold_left
            (fun n s -> if s <> Op nop then n + 1 else n)
            0 small
        in
        let path =
          write_reproducer ~dir ~seed ~index ~fuel ~message:m small
        in
        log
          (Printf.sprintf "page %d: shrunk to %d live slots -> %s" index kept
             path);
        reproducer := Some path));
    outcomes := { index; verdict; reproducer = !reproducer } :: !outcomes
  done;
  { pages; matched = !matched; hung = !hung; mismatched = !mismatched;
    storage_injected = !storage_fired; outcomes = List.rev !outcomes }
