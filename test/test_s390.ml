(* The second base architecture: S/390-subset tests.

   Encoding round trips, interpreter semantics (condition codes,
   address masking, MVC), and — the paper's headline claim — full
   differential equivalence between the S/390 interpreter and DAISY
   executing the same S/390 binary through the shared tree-VLIW
   machinery, with no changes to the scheduler or the VMM. *)

module A = S390.Asm
module I = S390.Insn
module SInterp = S390.Interp
module Params = Translator.Params

(* ------------------------------------------------------------------ *)
(* Encode / decode                                                     *)

let roundtrip i =
  let mem = Ppc.Mem.create 0x1000 in
  let _ = S390.Encode.store mem 0x100 i in
  match S390.Decode.decode mem 0x100 with
  | Some (i', len) ->
    Alcotest.(check string) (I.to_string i) (I.to_string i) (I.to_string i');
    Alcotest.(check int) "length" (S390.Encode.length i) len
  | None -> Alcotest.failf "%s did not decode" (I.to_string i)

let test_roundtrip () =
  List.iter roundtrip
    [ I.RR (LR_, 1, 2); RR (AR, 15, 0); RR (SR, 3, 3); RR (NR, 4, 5);
      RR (OR_, 6, 7); RR (XR_, 8, 9); RR (CR_, 10, 11); RR (LTR, 12, 13);
      BALR (14, 15); BALR (12, 0); BCR (15, 14); BCR (8, 3);
      RX (L, 1, 2, 3, 0xFFF); RX (ST_, 4, 0, 5, 0); RX (A, 6, 7, 8, 100);
      RX (S, 1, 0, 2, 4); RX (N, 1, 0, 2, 4); RX (O, 1, 0, 2, 4);
      RX (X, 1, 0, 2, 4); RX (C, 1, 0, 2, 4); RX (LA, 9, 10, 11, 2047);
      RX (LH, 1, 0, 2, 8); RX (STH, 1, 0, 2, 8); RX (STC, 1, 0, 2, 8);
      RX (IC, 1, 0, 2, 8); RX (BAL, 14, 0, 12, 0x400);
      RX (BCT, 5, 0, 12, 0x100); BC (7, 0, 12, 0x200); SLL (3, 31);
      SRL (4, 1); SI (MVI, 100, 3, 0xAB); SI (CLI, 200, 4, 0x20);
      SI (TM, 300, 5, 0x80); MVC (11, 64, 6, 128, 7) ]

let test_lengths () =
  Alcotest.(check int) "RR = 2 bytes" 2 (S390.Encode.length (I.RR (LR_, 1, 2)));
  Alcotest.(check int) "RX = 4" 4 (S390.Encode.length (I.RX (L, 1, 0, 2, 0)));
  Alcotest.(check int) "SS = 6" 6 (S390.Encode.length (I.MVC (3, 0, 1, 0, 2)))

let test_mvc_limit () =
  let mem = Ppc.Mem.create 0x1000 in
  let _ = S390.Encode.store mem 0x100 (I.MVC (40, 0, 1, 0, 2)) in
  Alcotest.(check bool) "over-limit MVC rejected" true
    (S390.Decode.decode mem 0x100 = None)

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)

let run_s390 ?(fuel = 200_000) build =
  let mem = Ppc.Mem.create 0x40000 in
  let a = A.create () in
  build a;
  let labels = A.assemble a mem in
  let st = Ppc.Machine.create () in
  st.pc <- A.resolve labels "main";
  let it = SInterp.create st mem in
  let code = SInterp.run it ~fuel in
  (code, st, mem, it)

let build_prelude a =
  (* literal pool at a fixed low address *)
  A.org a 0x100;
  A.label a "lit_halt";
  A.word a Ppc.Mem.mmio_halt;
  A.org a 0x800;
  A.label a "main";
  A.set_base a "base"

(* load a 16-bit constant (multiple of 16) via la + sll *)
let li16 a r v =
  assert (v land 0xF = 0 && v lsr 4 <= 0xFFF);
  A.la a r (v lsr 4);
  A.ins a (SLL (r, 4))

(* exit with the value in r2 *)
let emit_halt a =
  A.ins a (RX (L, 3, 0, 0, 0x100));   (* r3 = &halt *)
  A.ins a (RX (ST_, 2, 0, 3, 0))      (* store r2 -> halt *)

let test_cc_arith () =
  let code, st, _, _ =
    run_s390 (fun a ->
        build_prelude a;
        A.la a 1 10;
        A.la a 2 10;
        A.sr a 2 1;                       (* 0 -> CC0 *)
        A.be a "was_zero";
        A.la a 2 999;
        emit_halt a;
        A.label a "was_zero";
        A.la a 5 7;
        A.ar a 2 5;                       (* 7 -> CC2 *)
        A.bh a "pos";
        A.la a 2 998;
        emit_halt a;
        A.label a "pos";
        A.lr a 2 5;
        emit_halt a)
  in
  Alcotest.(check (option int)) "flows through CC tests" (Some 7) code;
  Alcotest.(check int) "cc one-hot" (I.cc_to_field 2) (Ppc.Machine.get_crf st 0)

let test_address_mask () =
  (* LA masks to 31 bits even when the base has bit 31 set *)
  let _, st, _, _ =
    run_s390 (fun a ->
        A.org a 0x200;
        A.label a "big";
        A.word a 0x8000_1000;
        build_prelude a;
        A.ins a (RX (L, 4, 0, 0, 0x200));
        A.ins a (RX (LA, 5, 0, 4, 8));
        A.la a 2 0;
        emit_halt a)
  in
  Alcotest.(check int) "31-bit mask applied" 0x1008 st.gpr.(5)

let test_mvc_overlap () =
  (* the classic one-byte-overlap MVC propagates (memset behaviour) *)
  let _, _, mem, _ =
    run_s390 (fun a ->
        build_prelude a;
        A.la a 6 0x300;
        A.ins a (SI (MVI, 0, 6, 0x5A));            (* seed byte *)
        A.ins a (MVC (7, 1, 6, 0, 6));             (* 8 bytes, dst = src+1 *)
        A.la a 2 0;
        emit_halt a)
  in
  for k = 0 to 8 do
    Alcotest.(check int)
      (Printf.sprintf "byte %d propagated" k)
      0x5A
      (Ppc.Mem.load8 mem (0x300 + k))
  done

let test_bct_loop () =
  let code, _, _, it =
    run_s390 (fun a ->
        build_prelude a;
        A.la a 5 100;   (* counter *)
        A.la a 2 0;     (* sum *)
        A.la a 6 3;
        A.label a "loop";
        A.ar a 2 6;
        A.bct a 5 "loop";
        emit_halt a)
  in
  Alcotest.(check (option int)) "sum 3*100" (Some 300) code;
  Alcotest.(check bool) "ran the loop" true (it.icount > 200)

let test_bal_call () =
  let code, _, _, _ =
    run_s390 (fun a ->
        build_prelude a;
        A.la a 2 5;
        A.bal a 14 "double";
        A.bal a 14 "double";
        emit_halt a;
        A.label a "double";
        A.ar a 2 2;
        A.br a 14)
  in
  Alcotest.(check (option int)) "call/return twice" (Some 20) code

let test_tm_cli () =
  let code, _, _, _ =
    run_s390 (fun a ->
        build_prelude a;
        A.la a 6 0x300;
        A.ins a (SI (MVI, 0, 6, 0xA5));
        A.ins a (SI (TM, 0, 6, 0x80));   (* bit set -> CC2 (subset) *)
        A.bh a "bit_set";
        A.la a 2 111;
        emit_halt a;
        A.label a "bit_set";
        A.ins a (SI (CLI, 0, 6, 0xA5)); (* equal -> CC0 *)
        A.be a "eq";
        A.la a 2 222;
        emit_halt a;
        A.label a "eq";
        A.la a 2 42;
        emit_halt a)
  in
  Alcotest.(check (option int)) "tm + cli path" (Some 42) code

(* The VMM's episode step classifies the instruction it stepped: the
   calls and branches (BALR, BCR, BC, BAL, BCT) end an episode, every
   other form does not. *)
let test_episode_step () =
  let rr = [ I.LR_; AR; SR; NR; OR_; XR_; CR_; LTR ] in
  let rx = [ I.L; ST_; A; S; N; O; X; C; LA; LH; STH; STC; IC ] in
  let forms =
    [ (I.BALR (14, 0), true); (BCR (0, 14), true); (BC (0, 0, 0, 0x200), true);
      (RX (BAL, 14, 0, 0, 0x400), true); (RX (BCT, 5, 0, 0, 0x100), true);
      (SLL (3, 4), false); (SRL (3, 4), false);
      (SI (MVI, 0x100, 0, 0xAB), false); (SI (CLI, 0x100, 0, 0x20), false);
      (SI (TM, 0x100, 0, 0x80), false); (MVC (3, 0x180, 0, 0x100, 0), false) ]
    @ List.map (fun op -> (I.RR (op, 1, 2), false)) rr
    @ List.map (fun op -> (I.RX (op, 1, 0, 0, 0x100), false)) rx
  in
  let mem = Ppc.Mem.create 0x1000 and st = Ppc.Machine.create () in
  let step = S390.Frontend.s390.make_step st mem in
  List.iter
    (fun (i, ends) ->
      ignore (S390.Encode.store mem 0x800 i);
      st.pc <- 0x800;
      Alcotest.(check bool) (I.to_string i) ends (step ()))
    forms

(* ------------------------------------------------------------------ *)
(* Differential: S/390 under DAISY                                     *)

let differential ?(params = Params.default) name build =
  let rcode, rst, rmem, _ = run_s390 build in
  let mem = Ppc.Mem.create 0x40000 in
  let a = A.create () in
  build a;
  let labels = A.assemble a mem in
  let vmm = Vmm.Monitor.create ~params ~frontend:S390.Frontend.s390 mem in
  let dcode =
    Vmm.Monitor.run vmm ~entry:(A.resolve labels "main") ~fuel:400_000
  in
  Alcotest.(check (option int)) (name ^ ": exit") rcode dcode;
  Alcotest.(check bool)
    (name ^ ": architected state")
    true
    (Ppc.Machine.equal rst vmm.st.m);
  Alcotest.(check bool)
    (name ^ ": memory")
    true
    (Bytes.equal rmem.bytes mem.bytes);
  vmm

let t_diff_arith () =
  ignore
    (differential "arith" (fun a ->
         build_prelude a;
         A.la a 1 100;
         A.la a 2 0;
         A.la a 3 17;
         A.label a "loop";
         A.ar a 2 3;
         A.ins a (RR (XR_, 3, 2));
         A.ins a (SLL (3, 1));
         A.ins a (SRL (3, 3));
         A.ins a (RR (NR, 3, 2));
         A.ins a (RR (OR_, 3, 1));
         A.bct a 1 "loop";
         emit_halt a))

let t_diff_memcpy () =
  let vmm =
    differential "memcpy via MVC" (fun a ->
        build_prelude a;
        (* source: 96 bytes seeded via STC loop *)
        A.la a 5 96;
        li16 a 6 0x2000;  (* src *)
        A.la a 7 0;
        A.label a "seed";
        A.lr a 8 7;
        A.ins a (SLL (8, 2));
        A.ins a (RX (STC, 8, 7, 6, 0));
        A.la a 9 1;
        A.ar a 7 9;
        A.bct a 5 "seed";
        (* copy 96 bytes in 12-byte MVCs *)
        A.la a 5 8;
        li16 a 6 0x2000;
        li16 a 10 0x2800; (* dst *)
        A.label a "copy";
        A.ins a (MVC (11, 0, 10, 0, 6));
        A.la a 9 12;
        A.ar a 6 9;
        A.ar a 10 9;
        A.bct a 5 "copy";
        (* checksum the copy *)
        A.la a 5 24;
        li16 a 10 0x2800;
        A.la a 2 0;
        A.label a "sum";
        A.ins a (RX (L, 8, 0, 10, 0));
        A.ar a 2 8;
        A.la a 9 4;
        A.ar a 10 9;
        A.bct a 5 "sum";
        emit_halt a)
  in
  Alcotest.(check bool) "register-indirect cross-page branches happened" true
    (vmm.stats.cross_gpr > 0)

let t_diff_search () =
  ignore
    (differential "byte scan with CLI" (fun a ->
         build_prelude a;
         (* plant a sentinel *)
         li16 a 6 0x2100;
         A.ins a (SI (MVI, 77, 6, 0xEE));
         A.la a 2 0;     (* index *)
         A.label a "scan";
         A.ins a (SI (CLI, 0, 6, 0xEE));
         A.be a "found";
         A.la a 9 1;
         A.ar a 6 9;
         A.ar a 2 9;
         A.b a "scan";
         A.label a "found";
         emit_halt a))

let t_diff_dispatch () =
  ignore
    (differential "indirect dispatch via BALR/BCR" (fun a ->
         build_prelude a;
         A.la a 2 0;
         A.la a 5 6;   (* iterations *)
         A.label a "loop";
         (* select handler by parity of r5 *)
         A.lr a 7 5;
         A.ins a (SI (MVI, 0x380, 0, 1));  (* scratch noise *)
         A.ins a (RR (NR, 7, 5));
         A.la a 8 1;
         A.ins a (RR (NR, 7, 8));
         A.ins a (RR (LTR, 7, 7));
         A.be a "even";
         A.bal a 14 "h_odd";
         A.b a "next";
         A.label a "even";
         A.bal a 14 "h_even";
         A.label a "next";
         A.bct a 5 "loop";
         emit_halt a;
         A.label a "h_odd";
         A.la a 9 1;
         A.ar a 2 9;
         A.br a 14;
         A.label a "h_even";
         A.la a 9 100;
         A.ar a 2 9;
         A.br a 14))

let t_diff_guarded () =
  (* the guarded indirect inlining of Chapter 6 must preserve results *)
  let vmm =
    differential "guarded inlining"
      ~params:{ Params.default with guard_indirect = true }
      (fun a ->
        build_prelude a;
        A.la a 2 0;
        A.la a 5 9;
        A.label a "loop";
        A.lr a 7 5;
        A.la a 8 1;
        A.ins a (RR (NR, 7, 8));
        A.ins a (RR (LTR, 7, 7));
        A.be a "even";
        A.bal a 14 "h_odd";
        A.b a "next";
        A.label a "even";
        A.bal a 14 "h_even";
        A.label a "next";
        A.bct a 5 "loop";
        emit_halt a;
        A.label a "h_odd";
        A.la a 9 1;
        A.ar a 2 9;
        A.br a 14;
        A.label a "h_even";
        A.la a 9 100;
        A.ar a 2 9;
        A.br a 14)
  in
  ignore vmm

let t_diff_tiny_machine () =
  ignore
    (differential "tiny machine config"
       ~params:{ Params.default with config = Vliw.Config.figure_5_1.(0) }
       (fun a ->
         build_prelude a;
         A.la a 1 40;
         A.la a 2 0;
         A.la a 3 5;
         li16 a 10 0x2200;
         A.label a "loop";
         A.ar a 2 3;
         A.ins a (RX (ST_, 2, 0, 10, 0));
         A.ins a (RX (L, 4, 0, 10, 0));
         A.ar a 2 4;
         A.bct a 1 "loop";
         emit_halt a))

let t_translated_trees () =
  (* the S/390 fragment really goes through the tree-VLIW machinery *)
  let mem = Ppc.Mem.create 0x40000 in
  let a = A.create () in
  build_prelude a;
  A.la a 1 4;
  A.la a 2 0;
  A.label a "loop";
  A.ar a 2 1;
  A.bct a 1 "loop";
  emit_halt a;
  let labels = A.assemble a mem in
  let tr =
    Translator.Translate.create ~frontend:S390.Frontend.s390 Params.default mem
  in
  let page, _ = Translator.Translate.entry tr (A.resolve labels "main") in
  Alcotest.(check bool) "several VLIWs" true (Translator.Vec.length page.vliws > 2);
  Alcotest.(check bool) "instructions scheduled" true (tr.totals.insns > 5)

let t_regress_split_selfupdate () =
  (* Regression: a self-updating instruction (AR r2,r2 reads and writes
     r2) whose value write and CC record land in different VLIWs, with
     an alias rollback in between, used to re-execute the update.  The
     staged-commit mechanism must keep every precise point consistent.
     The MVI stores into the word the loop reloads, forcing alias
     rollbacks every iteration. *)
  ignore
    (differential "split self-update + rollback" (fun a ->
         build_prelude a;
         li16 a 10 0x2000;
         A.la a 11 5;
         A.label a "loop";
         A.ins a (RX (L, 2, 0, 10, 20));
         A.ins a (RR (OR_, 4, 3));
         A.bc a 4 "sk";
         A.ar a 2 3;
         A.label a "sk";
         A.ins a (SI (MVI, 21, 10, 92));
         A.ins a (RR (XR_, 3, 2));
         A.ins a (RR (AR, 8, 8));
         A.bct a 11 "loop";
         A.ins a (RR (XR_, 2, 8));
         emit_halt a))

(* ------------------------------------------------------------------ *)
(* Random differential programs                                       *)

type ritem =
  | RRop of S390.Insn.rr_op * int * int
  | Shift of bool * int * int
  | LoadSlot of int * int
  | StoreSlot of int * int
  | Skip of int
  | Mvi of int * int
  | MvcSlots of int * int * int

let gen_item =
  let open QCheck.Gen in
  let reg = int_range 2 8 in
  oneof
    [ (let* op =
         oneofl S390.Insn.[ LR_; AR; SR; NR; OR_; XR_; CR_; LTR ]
       and* a = reg
       and* b = reg in
       return (RRop (op, a, b)));
      map3 (fun l r n -> Shift (l, r, n)) QCheck.Gen.bool reg (int_range 0 7);
      map2 (fun r s -> LoadSlot (r, s)) reg (int_bound 15);
      map2 (fun r s -> StoreSlot (r, s)) reg (int_bound 15);
      map (fun m -> Skip m) (oneofl [ 8; 7; 4; 2; 11; 13 ]);
      map2 (fun s v -> Mvi (s, v)) (int_bound 15) (int_bound 255);
      (let* l = int_range 0 7 and* d = int_bound 12 and* sr = int_bound 12 in
       return (MvcSlots (l, d, sr))) ]

let gen_program = QCheck.Gen.(list_size (int_range 4 30) gen_item)

let random_to_asm items a =
  A.org a 0x100;
  A.word a Ppc.Mem.mmio_halt;
  A.org a 0x800;
  A.label a "main";
  A.set_base a "base";
  (* seed registers and a scratch buffer pointer *)
  for r = 2 to 8 do
    A.la a r ((r * 97) + 5)
  done;
  li16 a 10 0x2000;
  A.la a 11 5;  (* outer loop count *)
  A.label a "loop";
  List.iteri
    (fun i item ->
      match item with
      | RRop (op, r1, r2) -> A.ins a (RR (op, r1, r2))
      | Shift (left, r, n) -> A.ins a (if left then SLL (r, n) else SRL (r, n))
      | LoadSlot (r, s) -> A.ins a (RX (L, r, 0, 10, 4 * s))
      | StoreSlot (r, s) -> A.ins a (RX (ST_, r, 0, 10, 4 * s))
      | Skip m ->
        let lbl = Printf.sprintf "sk%d" i in
        A.bc a m lbl;
        A.ins a (RR (AR, 2, 3));
        A.label a lbl
      | Mvi (s, v) -> A.ins a (SI (MVI, (4 * s) + 1, 10, v))
      | MvcSlots (l, d, sr) -> A.ins a (MVC (l, d, 10, 64 + sr, 10)))
    items;
  A.bct a 11 "loop";
  (* fold registers into r2 and halt *)
  for r = 3 to 8 do
    A.ins a (RR (XR_, 2, r))
  done;
  emit_halt a

let prop_random params_name params =
  QCheck.Test.make
    ~name:("random s390 programs: daisy = interpreter (" ^ params_name ^ ")")
    ~count:80 (QCheck.make gen_program)
    (fun items ->
      try
      let build = random_to_asm items in
      let rcode, rst, rmem, _ = run_s390 ~fuel:100_000 build in
      let mem = Ppc.Mem.create 0x40000 in
      let a = A.create () in
      build a;
      let labels = A.assemble a mem in
      let vmm = Vmm.Monitor.create ~params ~frontend:S390.Frontend.s390 mem in
      let dcode =
        Vmm.Monitor.run vmm ~entry:(A.resolve labels "main") ~fuel:300_000
      in
      rcode = dcode
      && Ppc.Machine.equal rst vmm.st.m
      && Bytes.equal rmem.bytes mem.bytes
      with e ->
        Printf.printf "EXN: %s\n%!" (Printexc.to_string e);
        false)

let random_suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random "default" Params.default;
      prop_random "guarded" { Params.default with guard_indirect = true };
      prop_random "tiny machine"
        { Params.default with config = Vliw.Config.figure_5_1.(0) };
      prop_random "small pages" { Params.default with page_size = 512 } ]

let () =
  Alcotest.run "s390"
    [ ( "codec",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "lengths" `Quick test_lengths;
          Alcotest.test_case "mvc limit" `Quick test_mvc_limit ] );
      ( "interp",
        [ Alcotest.test_case "condition codes" `Quick test_cc_arith;
          Alcotest.test_case "address mask" `Quick test_address_mask;
          Alcotest.test_case "mvc overlap" `Quick test_mvc_overlap;
          Alcotest.test_case "bct loop" `Quick test_bct_loop;
          Alcotest.test_case "bal call" `Quick test_bal_call;
          Alcotest.test_case "tm + cli" `Quick test_tm_cli;
          Alcotest.test_case "episode step" `Quick test_episode_step ] );
      ( "differential",
        [ Alcotest.test_case "arith loop" `Quick t_diff_arith;
          Alcotest.test_case "memcpy via MVC" `Quick t_diff_memcpy;
          Alcotest.test_case "byte scan" `Quick t_diff_search;
          Alcotest.test_case "dispatch" `Quick t_diff_dispatch;
          Alcotest.test_case "tiny machine" `Quick t_diff_tiny_machine;
          Alcotest.test_case "guarded inlining" `Quick t_diff_guarded;
          Alcotest.test_case "tree translation" `Quick t_translated_trees;
          Alcotest.test_case "split self-update + rollback" `Quick
            t_regress_split_selfupdate ] );
      ("random", random_suite) ]
