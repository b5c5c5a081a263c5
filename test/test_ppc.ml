(* Tests for the base-architecture substrate: instruction encode/decode
   round-trips (exhaustive-ish via qcheck), interpreter semantics against
   hand-computed results, assembler label resolution, memory faults and
   interrupt delivery. *)

open Ppc

let check_insn msg expected actual =
  Alcotest.(check string) msg (Insn.to_string expected) (Insn.to_string actual)

(* ------------------------------------------------------------------ *)
(* Encode/decode round trip                                            *)

let roundtrip i =
  match Decode.decode (Encode.encode i) with
  | Some i' -> check_insn (Insn.to_string i) i i'
  | None ->
    Alcotest.failf "%s (%08x) did not decode" (Insn.to_string i)
      (Encode.encode i)

let test_roundtrip_fixed () =
  List.iter roundtrip
    [ Addi (1, 2, -3);
      Addi (0, 0, 32767);
      Addis (3, 0, -0x8000);
      Addic (5, 6, 100);
      Mulli (7, 8, -42);
      Cmpi (3, 9, -1);
      Cmpli (7, 10, 0xFFFF);
      Andi (11, 12, 0xF0F0);
      Ori (1, 1, 0);
      Oris (2, 3, 0x8000);
      Xori (4, 5, 0x1234);
      Xo (Add, 1, 2, 3, false);
      Xo (Subf, 31, 30, 29, true);
      Xo (Neg, 4, 5, 0, false);
      Xo (Mullw, 6, 7, 8, false);
      Xo (Divw, 9, 10, 11, true);
      Xo (Addc, 1, 2, 3, false);
      Xo (Adde, 1, 2, 3, false);
      X (And_, 1, 2, 3, true);
      X (Nor, 4, 5, 6, false);
      X (Sraw, 7, 8, 9, false);
      X (Slw, 10, 11, 12, true);
      X1 (Cntlzw, 13, 14, false);
      X1 (Extsb, 15, 16, true);
      Srawi (17, 18, 31, false);
      Cmp (0, 1, 2);
      Cmpl (7, 3, 4);
      Rlwinm (5, 6, 7, 8, 9, true);
      Load (Word, false, 1, 2, -4);
      Load (Byte, false, 3, 4, 0x7FFF);
      Load (Half, true, 5, 6, -0x8000);
      Load (Half, false, 7, 8, 2);
      Store (Word, 9, 10, 4);
      Store (Byte, 11, 12, -1);
      Store (Half, 13, 14, 100);
      Loadx (Word, false, 1, 2, 3);
      Loadx (Half, true, 4, 5, 6);
      Storex (Byte, 7, 8, 9);
      Lwzu (1, 2, 8);
      Stwu (1, 1, -16);
      Lmw (25, 1, 4);
      Stmw (25, 1, 4);
      B (0x1000, false, false);
      B (-0x1000, false, true);
      B (0x100, true, false);
      Bc (12, 2, 0x40, false, false);
      Bc (4, 31, -0x40, false, true);
      Bc (16, 0, 8, false, false);
      Bclr (20, 0, false);
      Bclr (12, 2, true);
      Bcctr (20, 0, true);
      Crop (Crand, 1, 2, 3);
      Crop (Crnor, 31, 30, 29);
      Mcrf (1, 7);
      Mfcr 5;
      Mtcrf (0xFF, 6);
      Mtcrf (0x80, 7);
      Mfspr (1, LR);
      Mfspr (2, CTR);
      Mfspr (3, XER);
      Mfspr (4, SRR0);
      Mtspr (SRR1, 5);
      Mtspr (SPRG0, 6);
      Mtspr (DAR, 7);
      Mfmsr 8;
      Mtmsr 9;
      Sc;
      Rfi;
      Isync ]

(* Random instruction generator for the property test. *)
let gen_insn =
  let open QCheck.Gen in
  let gpr = int_bound 31 in
  let crf = int_bound 7 in
  let crb = int_bound 31 in
  let simm = map (fun v -> v - 0x8000) (int_bound 0xFFFF) in
  let uimm = int_bound 0xFFFF in
  let disp = simm in
  let rc = bool in
  let width = oneofl [ Insn.Byte; Insn.Half; Insn.Word ] in
  let spr =
    oneofl [ Insn.XER; LR; CTR; SRR0; SRR1; DAR; DSISR; SPRG0; SPRG1 ]
  in
  let xo_op =
    oneofl
      [ Insn.Add; Addc; Adde; Subf; Subfc; Mullw; Mulhw; Mulhwu; Divw; Divwu; Neg ]
  in
  let x_op =
    oneofl [ Insn.And_; Or_; Xor_; Nand; Nor; Andc; Eqv; Slw; Srw; Sraw ]
  in
  let x1_op = oneofl [ Insn.Cntlzw; Extsb; Extsh ] in
  let cr_op =
    oneofl [ Insn.Crand; Cror; Crxor; Crnand; Crnor; Crandc; Creqv; Crorc ]
  in
  let boff = map (fun v -> (v - 0x2000) * 4) (int_bound 0x3FFF) in
  let lioff = map (fun v -> (v - 0x80_0000) * 4) (int_bound 0xFF_FFFF) in
  oneof
    [ map3 (fun a b c -> Insn.Addi (a, b, c)) gpr gpr simm;
      map3 (fun a b c -> Insn.Addis (a, b, c)) gpr gpr simm;
      map3 (fun a b c -> Insn.Addic (a, b, c)) gpr gpr simm;
      map3 (fun a b c -> Insn.Mulli (a, b, c)) gpr gpr simm;
      map3 (fun a b c -> Insn.Cmpi (a, b, c)) crf gpr simm;
      map3 (fun a b c -> Insn.Cmpli (a, b, c)) crf gpr uimm;
      map3 (fun a b c -> Insn.Andi (a, b, c)) gpr gpr uimm;
      map3 (fun a b c -> Insn.Ori (a, b, c)) gpr gpr uimm;
      map3 (fun a b c -> Insn.Xori (a, b, c)) gpr gpr uimm;
      (let* op = xo_op and* a = gpr and* b = gpr and* c = gpr and* r = rc in
       return (Insn.Xo (op, a, b, c, r)));
      (let* op = x_op and* a = gpr and* b = gpr and* c = gpr and* r = rc in
       return (Insn.X (op, a, b, c, r)));
      (let* op = x1_op and* a = gpr and* b = gpr and* r = rc in
       return (Insn.X1 (op, a, b, r)));
      (let* a = gpr and* b = gpr and* sh = int_bound 31 and* r = rc in
       return (Insn.Srawi (a, b, sh, r)));
      map3 (fun a b c -> Insn.Cmp (a, b, c)) crf gpr gpr;
      map3 (fun a b c -> Insn.Cmpl (a, b, c)) crf gpr gpr;
      (let* a = gpr and* b = gpr and* sh = int_bound 31 and* mb = int_bound 31
       and* me = int_bound 31 and* r = rc in
       return (Insn.Rlwinm (a, b, sh, mb, me, r)));
      (let* w = width and* alg = bool and* a = gpr and* b = gpr and* d = disp in
       let alg = alg && w = Insn.Half in
       return (Insn.Load (w, alg, a, b, d)));
      (let* w = width and* a = gpr and* b = gpr and* d = disp in
       return (Insn.Store (w, a, b, d)));
      (let* w = width and* alg = bool and* a = gpr and* b = gpr and* c = gpr in
       let alg = alg && w = Insn.Half in
       return (Insn.Loadx (w, alg, a, b, c)));
      (let* w = width and* a = gpr and* b = gpr and* c = gpr in
       return (Insn.Storex (w, a, b, c)));
      map3 (fun a b c -> Insn.Lwzu (a, b, c)) gpr gpr disp;
      map3 (fun a b c -> Insn.Stwu (a, b, c)) gpr gpr disp;
      map3 (fun a b c -> Insn.Lmw (a, b, c)) gpr gpr disp;
      map3 (fun a b c -> Insn.Stmw (a, b, c)) gpr gpr disp;
      (let* li = lioff and* aa = bool and* lk = bool in
       return (Insn.B (li, aa, lk)));
      (let* bo = oneofl [ 20; 12; 4; 16; 18; 13; 5 ] and* bi = crb
       and* bd = boff and* lk = bool in
       return (Insn.Bc (bo, bi, bd, false, lk)));
      (let* bo = oneofl [ 20; 12; 4 ] and* bi = crb and* lk = bool in
       return (Insn.Bclr (bo, bi, lk)));
      (let* bo = oneofl [ 20; 12; 4 ] and* bi = crb and* lk = bool in
       return (Insn.Bcctr (bo, bi, lk)));
      (let* op = cr_op and* a = crb and* b = crb and* c = crb in
       return (Insn.Crop (op, a, b, c)));
      map2 (fun a b -> Insn.Mcrf (a, b)) crf crf;
      map (fun a -> Insn.Mfcr a) gpr;
      map2 (fun m a -> Insn.Mtcrf (m, a)) (int_bound 255) gpr;
      map2 (fun a s -> Insn.Mfspr (a, s)) gpr spr;
      map2 (fun s a -> Insn.Mtspr (s, a)) spr gpr;
      map (fun a -> Insn.Mfmsr a) gpr;
      map (fun a -> Insn.Mtmsr a) gpr;
      oneofl [ Insn.Sc; Insn.Rfi; Insn.Isync ] ]

let arb_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_insn (fun i ->
      match Decode.decode (Encode.encode i) with
      | Some i' -> i = i'
      | None -> false)

let prop_encode_32bit =
  QCheck.Test.make ~name:"encodings fit in 32 bits" ~count:2000 arb_insn
    (fun i ->
      let w = Encode.encode i in
      w >= 0 && w <= 0xFFFF_FFFF)

(* The decoder is the fuzzer's front line: any word, including ones
   that are not 32-bit values at all, must yield [Some i] or [None] —
   never an exception.  (Field extraction used to let [Invalid_argument]
   escape on pathological inputs.) *)
let prop_decode_total =
  let extremes =
    [ -1; min_int; max_int; 0; 0xFFFF_FFFF; 0x1_0000_0000; 1 lsl 62 ]
  in
  QCheck.Test.make ~name:"decode never raises" ~count:2000
    QCheck.(
      frequency
        [ (1, oneofl extremes); (8, map (fun w -> w land 0xFFFF_FFFF) int) ])
    (fun w ->
      match Decode.decode w with Some _ | None -> true)

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)

(* Run [prog] starting at 0x1000 until halt; return machine + memory. *)
let run_asm ?(fuel = 100_000) build =
  let mem = Mem.create 0x40000 in
  let a = Asm.create () in
  Asm.org a 0x1000;
  build a;
  let labels = Asm.assemble a mem in
  let st = Machine.create () in
  st.pc <- 0x1000;
  let t = Interp.create st mem in
  let code = Interp.run t ~fuel in
  (code, st, mem, labels, t)

let exit_with a rs = Asm.halt a ~scratch:31 rs

let test_arith () =
  let code, st, _, _, _ =
    run_asm (fun a ->
        Asm.li a 1 7;
        Asm.li a 2 5;
        Asm.add a 3 1 2;
        Asm.sub a 4 1 2;
        Asm.mullw a 5 1 2;
        Asm.li a 6 (-20);
        Asm.divw a 7 6 2;
        exit_with a 3)
  in
  Alcotest.(check (option int)) "exit code" (Some 12) code;
  Alcotest.(check int) "sub" 2 st.gpr.(4);
  Alcotest.(check int) "mullw" 35 st.gpr.(5);
  Alcotest.(check int) "divw" 0xFFFF_FFFC st.gpr.(7)

let test_carry () =
  let _, st, _, _, _ =
    run_asm (fun a ->
        Asm.li32 a 1 0xFFFF_FFFF;
        Asm.li a 2 1;
        Asm.ins a (Xo (Addc, 3, 1, 2, false));  (* carry out *)
        Asm.li a 4 0;
        Asm.ins a (Xo (Adde, 5, 4, 4, false));  (* 0+0+CA = 1 *)
        exit_with a 5)
  in
  Alcotest.(check int) "addc wraps" 0 st.gpr.(3);
  Alcotest.(check int) "adde picks up carry" 1 st.gpr.(5)

let test_cr_logic () =
  let _, st, _, _, _ =
    run_asm (fun a ->
        Asm.li a 1 3;
        Asm.cmpwi a 1 3;                        (* cr0 = EQ *)
        Asm.cmpwi ~cr:1 a 1 5;                  (* cr1 = LT *)
        Asm.ins a (Crop (Crand, 0, Insn.Crbit.of_field 0 Insn.Crbit.eq,
                         Insn.Crbit.of_field 1 Insn.Crbit.lt));
        Asm.ins a (Mfcr 6);
        exit_with a 6)
  in
  (* CR0 now has LT bit = (EQ0 && LT1) = 1; original EQ still set *)
  Alcotest.(check int) "crand result" 1 ((st.cr lsr 31) land 1);
  Alcotest.(check int) "cr0 eq still set" 1 ((st.cr lsr 29) land 1)

let test_rlwinm () =
  let _, st, _, _, _ =
    run_asm (fun a ->
        Asm.li32 a 1 0x1234_5678;
        Asm.slwi a 2 1 4;
        Asm.srwi a 3 1 8;
        Asm.ins a (Rlwinm (4, 1, 8, 24, 31, false)); (* extract top byte *)
        exit_with a 4)
  in
  Alcotest.(check int) "slwi" 0x2345_6780 st.gpr.(2);
  Alcotest.(check int) "srwi" 0x0012_3456 st.gpr.(3);
  Alcotest.(check int) "rotate+mask" 0x12 st.gpr.(4)

let test_cntlzw () =
  let _, st, _, _, _ =
    run_asm (fun a ->
        Asm.li a 1 0;
        Asm.ins a (X1 (Cntlzw, 2, 1, false));
        Asm.li a 3 1;
        Asm.ins a (X1 (Cntlzw, 4, 3, false));
        Asm.li32 a 5 0x8000_0000;
        Asm.ins a (X1 (Cntlzw, 6, 5, false));
        exit_with a 2)
  in
  Alcotest.(check int) "clz 0" 32 st.gpr.(2);
  Alcotest.(check int) "clz 1" 31 st.gpr.(4);
  Alcotest.(check int) "clz msb" 0 st.gpr.(6)

let test_loads_stores () =
  let _, st, mem, _, _ =
    run_asm (fun a ->
        Asm.li32 a 1 0x2000;
        Asm.li32 a 2 0xDEAD_BEEF;
        Asm.stw a 2 1 0;
        Asm.lbz a 3 1 0;
        Asm.lhz a 4 1 2;
        Asm.ins a (Load (Half, true, 5, 1, 0));  (* lha of 0xDEAD *)
        Asm.lwz a 6 1 0;
        exit_with a 6)
  in
  Alcotest.(check int) "word" 0xDEAD_BEEF (Mem.load32 mem 0x2000);
  Alcotest.(check int) "lbz top byte (big endian)" 0xDE st.gpr.(3);
  Alcotest.(check int) "lhz low half" 0xBEEF st.gpr.(4);
  Alcotest.(check int) "lha sign extends" 0xFFFF_DEAD st.gpr.(5)

let test_lmw_stmw () =
  let _, st, _, _, _ =
    run_asm (fun a ->
        Asm.li32 a 1 0x3000;
        Asm.li a 28 111;
        Asm.li a 29 222;
        Asm.li a 30 333;
        Asm.li a 31 444;
        Asm.ins a (Stmw (28, 1, 0));
        Asm.li a 28 0;
        Asm.li a 29 0;
        Asm.li a 30 0;
        Asm.li a 31 0;
        Asm.ins a (Lmw (28, 1, 0));
        Asm.halt a ~scratch:9 28)
  in
  Alcotest.(check (list int)) "lmw restores"
    [ 111; 222; 333; 444 ]
    [ st.gpr.(28); st.gpr.(29); st.gpr.(30); st.gpr.(31) ]

let test_branch_loop () =
  (* Sum 1..10 with a bdnz loop. *)
  let code, st, _, _, _ =
    run_asm (fun a ->
        Asm.li a 1 10;
        Asm.mtctr a 1;
        Asm.li a 2 0;
        Asm.li a 3 0;
        Asm.label a "loop";
        Asm.addi a 3 3 1;
        Asm.add a 2 2 3;
        Asm.bdnz a "loop";
        exit_with a 2)
  in
  Alcotest.(check (option int)) "sum 1..10" (Some 55) code;
  Alcotest.(check int) "ctr exhausted" 0 st.ctr

let test_call_return () =
  let code, _, _, _, _ =
    run_asm (fun a ->
        Asm.li a 3 5;
        Asm.bl a "double";
        Asm.bl a "double";
        exit_with a 3;
        Asm.label a "double";
        Asm.add a 3 3 3;
        Asm.blr a)
  in
  Alcotest.(check (option int)) "double twice" (Some 20) code

let test_indirect_ctr () =
  let code, _, _, _, _ =
    run_asm (fun a ->
        Asm.la a 5 "target";
        Asm.mtctr a 5;
        Asm.bctr a;
        Asm.li a 3 0;
        exit_with a 3;
        Asm.label a "target";
        Asm.li a 3 99;
        exit_with a 3)
  in
  Alcotest.(check (option int)) "bctr lands on target" (Some 99) code

let test_syscall_and_rfi () =
  (* Install a trivial OS handler at the syscall vector: it doubles r3
     and returns. *)
  let code, _, _, _, _ =
    run_asm (fun a ->
        Asm.li a 3 21;
        Asm.ins a Sc;
        exit_with a 3;
        Asm.org a Interp.Vector.syscall;
        Asm.add a 3 3 3;
        Asm.ins a Rfi)
  in
  Alcotest.(check (option int)) "sc doubles via handler" (Some 42) code

let test_data_fault_delivery () =
  (* A load from unmapped space should vector to 0x300 with DAR set. *)
  let code, st, _, _, _ =
    run_asm (fun a ->
        Asm.li32 a 4 0x00F0_0000;  (* beyond the 256K memory, not MMIO *)
        Asm.lwz a 5 4 0;
        Asm.li a 3 1;
        exit_with a 3;
        Asm.org a Interp.Vector.dsi;
        Asm.ins a (Mfspr (6, DAR));
        Asm.li a 3 77;
        exit_with a 3)
  in
  Alcotest.(check (option int)) "fault handler ran" (Some 77) code;
  Alcotest.(check int) "dar holds address" 0x00F0_0000 st.gpr.(6);
  Alcotest.(check int) "srr0 is faulting insn" 0x1004 st.srr0

let test_mmio_console () =
  let _, _, mem, _, _ =
    run_asm (fun a ->
        Asm.li a 3 (Char.code 'h');
        Asm.putchar a ~scratch:30 3;
        Asm.li a 3 (Char.code 'i');
        Asm.putchar a ~scratch:30 3;
        Asm.li a 3 0;
        exit_with a 3)
  in
  Alcotest.(check string) "console output" "hi" (Mem.output mem)

(* The MMIO load-decode rule, pinned: a load of any width whose
   enclosing word is the sequence register ticks it once and returns the
   new count masked to the load's width; every other I/O-space load
   reads as 0 with no side effect.  (The three widths used to disagree:
   halfword loads always read 0, word loads required exact address
   equality.) *)
let test_mmio_load_decode () =
  let mem = Mem.create 0x1000 in
  Alcotest.(check int) "word read ticks" 1 (Mem.load32 mem Mem.mmio_seq);
  Alcotest.(check int) "byte in seq word ticks" 2 (Mem.load8 mem (Mem.mmio_seq + 3));
  Alcotest.(check int) "half in seq word ticks" 3 (Mem.load16 mem (Mem.mmio_seq + 2));
  Alcotest.(check int) "device counted every read" 3 mem.seq;
  (* width masking: run the counter past one byte *)
  mem.seq <- 0x1FE;
  Alcotest.(check int) "byte read masks to 8 bits" 0xFF (Mem.load8 mem Mem.mmio_seq);
  Alcotest.(check int) "half read masks to 16 bits" 0x200 (Mem.load16 mem Mem.mmio_seq);
  (* any other MMIO address reads 0, silently, at every width *)
  List.iter
    (fun addr ->
      Alcotest.(check int) "other mmio byte" 0 (Mem.load8 mem addr);
      Alcotest.(check int) "other mmio half" 0 (Mem.load16 mem addr);
      Alcotest.(check int) "other mmio word" 0 (Mem.load32 mem addr))
    [ Mem.mmio_halt; Mem.mmio_putchar; Mem.mmio_base + 0x100 ];
  Alcotest.(check int) "no stray ticks" 0x200 mem.seq

let test_asm_labels () =
  let _, _, _, labels, _ =
    run_asm (fun a ->
        Asm.label a "start";
        Asm.li a 3 0;
        Asm.align a 16;
        Asm.label a "aligned";
        exit_with a 3)
  in
  Alcotest.(check int) "start label" 0x1000 (Hashtbl.find labels "start");
  Alcotest.(check int) "aligned label" 0x1010 (Hashtbl.find labels "aligned")

let test_reuse_counting () =
  let _, _, _, _, t =
    run_asm (fun a ->
        Asm.li a 1 100;
        Asm.mtctr a 1;
        Asm.li a 2 0;
        Asm.label a "loop";
        Asm.addi a 2 2 1;
        Asm.bdnz a "loop";
        exit_with a 2)
  in
  Alcotest.(check bool) "dynamic >> static" true (t.icount > 100);
  Alcotest.(check bool) "static small" true (Interp.static_touched t < 20)

(* ------------------------------------------------------------------ *)
(* Predecoded execution                                                *)

(* Everything a reference run ({!Vmm.Run.reference}) leaves, appended
   to [b]: exit code, dynamic count, the executed addresses, every
   register, memory and console. *)
let add_outcome b (code, _, _, (t : Interp.t)) =
  let add v =
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ' '
  in
  let st = t.st in
  add (Option.value code ~default:(-1));
  add t.icount;
  add (Interp.static_touched t);
  List.iter add
    (List.sort compare
       (Hashtbl.fold (fun pc () acc -> pc :: acc) t.touched []));
  Array.iter add st.gpr;
  List.iter add
    [ st.cr; st.lr; st.ctr; Machine.get_xer st; st.pc; st.msr; st.srr0;
      st.srr1; st.dar; st.dsisr; st.sprg0; st.sprg1 ];
  Buffer.add_string b (Digest.to_hex (Digest.bytes t.mem.bytes));
  Buffer.add_string b (Mem.output t.mem);
  Buffer.add_char b '\n'

(* The registry programs, then the first 2,000 seed-5 fuzz programs with
   raw words, which execute illegal words and take ISIs and DSIs.  The
   digest was recorded with the interpreter that decoded every word
   afresh; a change that means to alter the reference re-records it and
   says why. *)
let test_reference_parity () =
  let b = Buffer.create (1 lsl 20) in
  List.iter (fun w -> add_outcome b (Vmm.Run.reference w))
    Workloads.Registry.all;
  for index = 0 to 1999 do
    let rng = Random.State.make [| 5; index; 0 |] in
    let slots = Fault.Fuzz.gen_slots rng ~insns:96 ~allow_raw:true in
    add_outcome b
      (Vmm.Run.reference (Fault.Fuzz.wl_of ~seed:5 ~index ~fuel:100_000 slots))
  done;
  Alcotest.(check string) "digest" "d50a015b01ada53b540cd49fe36dd92d"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* test_daisy's self-modifying program: call a subroutine, store
   [patch] over its first word, call it again. *)
let patch_program patch a =
  Asm.li a 3 0;
  Asm.bl a "patchee";
  Asm.la a 5 "patch_site";
  Asm.li32 a 6 patch;
  Asm.stw a 6 5 0;
  Asm.ins a Isync;
  Asm.bl a "patchee";
  exit_with a 3;
  Asm.label a "patchee";
  Asm.label a "patch_site";
  Asm.addi a 3 3 1;
  Asm.blr a

let test_rewritten_word () =
  let code, _, _, _, _ =
    run_asm (patch_program (Encode.encode (Addi (3, 3, 100))))
  in
  Alcotest.(check (option int)) "second call runs the new word" (Some 101) code

let test_word_turned_illegal () =
  let code, st, _, labels, _ =
    run_asm (fun a ->
        patch_program 0 a;
        Asm.org a Interp.Vector.program;
        exit_with a 3)
  in
  Alcotest.(check (option int)) "program interrupt on the second call"
    (Some 1) code;
  Alcotest.(check int) "srr0 is the rewritten word"
    (Hashtbl.find labels "patch_site") st.srr0

(* [loop] and [far] are 256 bytes apart, so they and the words after
   them share slots of the starting 64-slot table, and both hold the
   same word, a branch 8 bytes ahead: run alternately, each pc must
   execute its own word from its own address. *)
let test_shared_slot () =
  let skip a = Asm.ins a (B (8, false, false)) in
  let code, _, _, labels, t =
    run_asm (fun a ->
        Asm.li a 3 0;
        Asm.li a 4 0;
        Asm.li a 5 10;
        Asm.mtctr a 5;
        Asm.label a "loop";
        skip a;
        Asm.addi a 3 3 100;
        Asm.addi a 3 3 1;
        Asm.b a "far";
        Asm.label a "back";
        Asm.bdnz a "loop";
        Asm.add a 3 3 4;
        exit_with a 3;
        Asm.org a 0x1110;
        Asm.label a "far";
        skip a;
        Asm.addi a 4 4 100;
        Asm.addi a 4 4 2;
        Asm.b a "back")
  in
  Alcotest.(check int) "256 bytes apart" (Hashtbl.find labels "loop" + 256)
    (Hashtbl.find labels "far");
  Alcotest.(check int) "still the starting table" 64 (Array.length t.slots);
  Alcotest.(check (option int)) "10 + 2 * 10" (Some 30) code;
  (* 4 set-up, 3 in the loop's half, bdnz, add, 3 to exit, 3 in far's *)
  Alcotest.(check int) "static" 15 (Interp.static_touched t)

(* A footprint larger than the starting table: the table grows and
   every word is counted once. *)
let test_large_footprint () =
  let code, _, _, _, t =
    run_asm (fun a ->
        Asm.li a 3 0;
        for _ = 1 to 1000 do
          Asm.addi a 3 3 1
        done;
        exit_with a 3)
  in
  Alcotest.(check (option int)) "exit" (Some 1000) code;
  Alcotest.(check int) "static" 1004 (Interp.static_touched t);
  Alcotest.(check bool) "grown" true (Array.length t.slots > 64);
  let _, _, _, t = Vmm.Run.reference (Workloads.Registry.by_name "gcc") in
  Alcotest.(check int) "gcc static" 139 (Interp.static_touched t)

(* The reference allocates nothing per instruction: runs cut at 100,000
   and 400,000 instructions allocate the same minor words, up to the
   fills of words first executed in between. *)
let test_run_allocation () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let words fuel =
        let mem, entry = Workloads.Wl.instantiate w in
        let st = Machine.create () in
        st.pc <- entry;
        let t = Interp.create st mem in
        let w0 = Gc.minor_words () in
        let code = Interp.run t ~fuel in
        let w1 = Gc.minor_words () in
        Alcotest.(check (option int)) "stopped by fuel" None code;
        w1 -. w0
      in
      let extra = words 400_000 -. words 100_000 in
      if extra > 1000. then
        Alcotest.failf "%s: %.0f more minor words for 300,000 more instructions"
          name extra)
    [ "c_sieve"; "compress" ]

(* A loop of loads, stores, ALU forms, a call and a return. *)
let episode_loop a =
  Asm.li32 a 1 0x8000;
  Asm.label a "loop";
  Asm.addi a 3 3 1;
  Asm.stw a 3 1 0;
  Asm.lwz a 4 1 0;
  Asm.slwi a 5 4 3;
  Asm.cmpw a 4 5;
  Asm.label a "call";
  Asm.bl a "leaf";
  Asm.b a "loop";
  Asm.label a "leaf";
  Asm.blr a

(* The VMM's episode step classifies the instruction it stepped, and
   on a warm loop allocates nothing per step. *)
let test_episode_step () =
  let mem = Mem.create 0x40000 in
  let a = Asm.create () in
  Asm.org a 0x1000;
  episode_loop a;
  let labels = Asm.assemble a mem in
  let st = Machine.create () in
  st.pc <- 0x1000;
  let step = Translator.Frontend.ppc.make_step st mem in
  let stops = ref [] in
  for _ = 1 to 10 do
    let pc = st.pc in
    if step () then stops := pc :: !stops
  done;
  Alcotest.(check (list int)) "bl and blr end episodes"
    [ Hashtbl.find labels "leaf"; Hashtbl.find labels "call" ] !stops;
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (step ())
    done;
    Gc.minor_words () -. w0
  in
  let short = words 1_000 in
  Alcotest.(check (float 0.)) "minor words" short (words 9_000)

(* [Monitor.create] and every shadow check make a fresh interpreter: it
   costs less than the 1,024-bucket [touched] table the interpreter
   used to start with, which went straight to the major heap. *)
let test_create_allocation () =
  let st = Machine.create () and mem = Mem.create 0x1000 in
  (* minor words, plus words allocated directly in the major heap *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let t = Sys.opaque_identity (Interp.create st mem) in
  let w1 = words () in
  ignore t;
  if w1 -. w0 > 1024. then
    Alcotest.failf "Interp.create allocated %.0f words" (w1 -. w0)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_encode_32bit; prop_decode_total ]
  in
  Alcotest.run "ppc"
    [ ("roundtrip", [ Alcotest.test_case "fixed vectors" `Quick test_roundtrip_fixed ] @ qsuite);
      ( "interp",
        [ Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "carry chain" `Quick test_carry;
          Alcotest.test_case "cr logic" `Quick test_cr_logic;
          Alcotest.test_case "rlwinm" `Quick test_rlwinm;
          Alcotest.test_case "cntlzw" `Quick test_cntlzw;
          Alcotest.test_case "loads/stores" `Quick test_loads_stores;
          Alcotest.test_case "lmw/stmw" `Quick test_lmw_stmw;
          Alcotest.test_case "bdnz loop" `Quick test_branch_loop;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "indirect via ctr" `Quick test_indirect_ctr;
          Alcotest.test_case "sc + rfi" `Quick test_syscall_and_rfi;
          Alcotest.test_case "data fault delivery" `Quick test_data_fault_delivery;
          Alcotest.test_case "mmio console" `Quick test_mmio_console;
          Alcotest.test_case "mmio load decode" `Quick test_mmio_load_decode;
          Alcotest.test_case "reuse counting" `Quick test_reuse_counting ] );
      ( "predecode",
        [ Alcotest.test_case "reference parity" `Quick test_reference_parity;
          Alcotest.test_case "rewritten word" `Quick test_rewritten_word;
          Alcotest.test_case "word turned illegal" `Quick
            test_word_turned_illegal;
          Alcotest.test_case "shared slot" `Quick test_shared_slot;
          Alcotest.test_case "large footprint" `Quick test_large_footprint;
          Alcotest.test_case "run allocation" `Quick test_run_allocation;
          Alcotest.test_case "episode step" `Quick test_episode_step;
          Alcotest.test_case "create allocation" `Quick
            test_create_allocation ] );
      ( "asm",
        [ Alcotest.test_case "labels and align" `Quick test_asm_labels ] ) ]
