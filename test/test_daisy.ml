(* Differential tests: every program must produce exactly the same exit
   code, architected register state, memory image and console output
   when run under DAISY (translate + VLIW execution + VMM recovery) as
   under the reference interpreter. *)

open Ppc
module Params = Translator.Params

let mem_size = 0x40000

(* Build a fresh memory image from an assembler program. *)
let build_mem build =
  let mem = Mem.create mem_size in
  let a = Asm.create () in
  build a;
  let labels = Asm.assemble a mem in
  (mem, labels)

let run_ref build ~entry ~fuel =
  let mem, labels = build_mem build in
  let st = Machine.create () in
  st.pc <- Hashtbl.find labels entry;
  let t = Interp.create st mem in
  let code = Interp.run t ~fuel in
  (code, st, mem, t)

let run_daisy ?(params = Params.default) build ~entry ~fuel =
  let mem, labels = build_mem build in
  let vmm = Vmm.Monitor.create ~params mem in
  let code = Vmm.Monitor.run vmm ~entry:(Hashtbl.find labels entry) ~fuel in
  (code, vmm.st.m, mem, vmm)

(* Compare a program's run under DAISY with the reference interpreter's. *)
let differential ?(params = Params.default) ?(fuel = 2_000_000) name build =
  let rcode, rst, rmem, _ = run_ref build ~entry:"main" ~fuel in
  let dcode, dst, dmem, _ = run_daisy ~params build ~entry:"main" ~fuel in
  Alcotest.(check (option int)) (name ^ ": exit code") rcode dcode;
  Alcotest.(check bool)
    (name ^ ": architected state")
    true (Machine.equal rst dst);
  Alcotest.(check string) (name ^ ": console") (Mem.output rmem) (Mem.output dmem);
  Alcotest.(check bool)
    (name ^ ": memory image")
    true (Bytes.equal rmem.bytes dmem.bytes)

let exit_with a rs = Asm.halt a ~scratch:31 rs

(* ------------------------------------------------------------------ *)
(* Hand-written programs                                               *)

let t_straightline () =
  differential "straightline" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 7;
      Asm.li a 2 5;
      Asm.add a 3 1 2;
      Asm.mullw a 4 3 3;
      Asm.sub a 5 4 1;
      Asm.xor a 6 5 4;
      exit_with a 5)

let t_branches () =
  differential "branches" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 10;
      Asm.li a 2 0;
      Asm.label a "loop";
      Asm.cmpwi a 1 5;
      Asm.bc a Asm.Gt "big";
      Asm.addi a 2 2 1;
      Asm.b a "next";
      Asm.label a "big";
      Asm.addi a 2 2 100;
      Asm.label a "next";
      Asm.addi a 1 1 (-1);
      Asm.cmpwi a 1 0;
      Asm.bc a Asm.Ne "loop";
      exit_with a 2)

let t_bdnz_sum () =
  differential "bdnz sum" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 100;
      Asm.mtctr a 1;
      Asm.li a 2 0;
      Asm.li a 3 0;
      Asm.label a "loop";
      Asm.addi a 3 3 1;
      Asm.add a 2 2 3;
      Asm.bdnz a "loop";
      exit_with a 2)

let t_memory () =
  differential "loads and stores" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 0x8000;
      Asm.li a 2 50;
      Asm.mtctr a 2;
      Asm.li a 3 0;
      (* fill array with i*i *)
      Asm.li a 4 0;
      Asm.label a "fill";
      Asm.mullw a 5 4 4;
      Asm.slwi a 6 4 2;
      Asm.stwx a 5 1 6;
      Asm.addi a 4 4 1;
      Asm.bdnz a "fill";
      (* sum it *)
      Asm.li a 2 50;
      Asm.mtctr a 2;
      Asm.li a 4 0;
      Asm.li a 7 0;
      Asm.label a "sum";
      Asm.slwi a 6 4 2;
      Asm.lwzx a 5 1 6;
      Asm.add a 7 7 5;
      Asm.addi a 4 4 1;
      Asm.bdnz a "sum";
      exit_with a 7)

let t_call_chain () =
  differential "calls" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 3 3;
      Asm.bl a "f";
      Asm.bl a "f";
      Asm.bl a "g";
      exit_with a 3;
      Asm.label a "f";
      Asm.mullw a 3 3 3;
      Asm.blr a;
      Asm.label a "g";
      Asm.ins a (Mfspr (10, LR));
      Asm.addi a 3 3 1;
      Asm.ins a (Mtspr (LR, 10));
      Asm.blr a)

let t_carry_chain () =
  differential "carry chain" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 0xFFFF_FFFF;
      Asm.li a 2 1;
      Asm.ins a (Xo (Addc, 3, 1, 2, false));
      Asm.li a 4 10;
      Asm.ins a (Xo (Adde, 5, 4, 4, false));
      Asm.ins a (Xo (Adde, 6, 5, 5, false));
      Asm.ins a (Addic (7, 1, 1));
      Asm.ins a (Xo (Adde, 8, 7, 7, false));
      exit_with a 6)

let t_cr_ops () =
  differential "cr ops" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 3;
      Asm.cmpwi a 1 3;
      Asm.cmpwi ~cr:1 a 1 5;
      Asm.cmpwi ~cr:2 a 1 1;
      Asm.ins a (Crop (Crand, 0, 6, 2));
      Asm.ins a (Crop (Cror, 1, 5, 9));
      Asm.ins a (Mcrf (3, 1));
      Asm.ins a (Mfcr 6);
      exit_with a 6)

let t_mtcrf () =
  differential "mtcrf" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 0x1234_5678;
      Asm.ins a (Mtcrf (0xA5, 1));
      Asm.ins a (Mfcr 2);
      exit_with a 2)

let t_lmw_stmw () =
  differential "lmw/stmw" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 0x9000;
      Asm.li a 25 11;
      Asm.li a 26 22;
      Asm.li a 27 33;
      Asm.li a 28 44;
      Asm.li a 29 55;
      Asm.li a 30 66;
      Asm.ins a (Stmw (25, 1, 0));
      Asm.li a 25 0;
      Asm.li a 28 0;
      Asm.ins a (Lmw (25, 1, 0));
      Asm.add a 3 25 28;
      exit_with a 3)

let t_indirect () =
  differential "indirect dispatch" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 9 0;
      Asm.li a 10 4;  (* iterations *)
      Asm.label a "loop";
      (* select a handler by parity *)
      Asm.ins a (Andi (10, 11, 1));
      Asm.cmpwi a 11 0;
      Asm.bc a Asm.Eq "even";
      Asm.la a 5 "h_odd";
      Asm.b a "disp";
      Asm.label a "even";
      Asm.la a 5 "h_even";
      Asm.label a "disp";
      Asm.mtctr a 5;
      Asm.bctrl a;
      Asm.addi a 10 10 (-1);
      Asm.cmpwi a 10 0;
      Asm.bc a Asm.Ne "loop";
      exit_with a 9;
      Asm.label a "h_odd";
      Asm.addi a 9 9 1;
      Asm.blr a;
      Asm.label a "h_even";
      Asm.addi a 9 9 100;
      Asm.blr a)

let t_syscall () =
  differential "syscall through translated OS" (fun a ->
      Asm.org a Interp.Vector.syscall;
      (* handler: r3 = r3 * 2 + 1, return *)
      Asm.add a 3 3 3;
      Asm.addi a 3 3 1;
      Asm.ins a Rfi;
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 3 10;
      Asm.ins a Sc;
      Asm.ins a Sc;
      exit_with a 3)

let t_page_fault () =
  differential "page fault recovery" (fun a ->
      Asm.org a Interp.Vector.dsi;
      (* handler: note the fault, fix base register, retry *)
      Asm.ins a (Mfspr (20, DAR));
      Asm.li32 a 21 0x8000;  (* patch the bad pointer *)
      Asm.ins a (Mfspr (22, SRR0));
      Asm.ins a Rfi;
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 21 0x00E0_0000;  (* out of bounds *)
      Asm.li a 5 7;
      Asm.stw a 5 21 0;           (* faults; handler repairs r21 *)
      Asm.stw a 5 21 0;           (* retried store succeeds *)
      Asm.lwz a 3 21 0;
      Asm.add a 3 3 20;           (* fold DAR into result *)
      exit_with a 3)

let t_spec_load_fault () =
  (* A load that would fault sits after a guarding branch; speculation
     hoists it above the guard, the tag must be discarded on the taken
     path and honoured on the fall-through path. *)
  differential "guarded faulting load" (fun a ->
      Asm.org a Interp.Vector.dsi;
      Asm.li a 3 777;
      exit_with a 3;
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 4 0x00E0_0000;  (* bad pointer *)
      Asm.li a 5 1;
      Asm.cmpwi a 5 0;
      Asm.bc a Asm.Ne "skip";    (* always taken: load must not fault *)
      Asm.lwz a 6 4 0;
      Asm.label a "skip";
      Asm.li a 3 42;
      exit_with a 3)

let t_alias () =
  (* Store/load to the same address in quick succession: the load is
     hoisted above the store and the runtime alias check must recover. *)
  differential "store-load alias" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 0x8000;
      Asm.li32 a 2 0x8000;  (* same address through a different register *)
      Asm.li a 9 0;
      Asm.li a 10 20;
      Asm.mtctr a 10;
      Asm.label a "loop";
      Asm.stw a 9 1 0;      (* store i *)
      Asm.lwz a 5 2 0;      (* load must see i *)
      Asm.add a 9 9 5;
      Asm.addi a 9 9 1;
      Asm.bdnz a "loop";
      exit_with a 9)

let t_self_modify () =
  (* The program overwrites an instruction in its own page and must
     observe the new semantics (translation invalidation). *)
  differential "self-modifying code" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      (* patch target initially: addi r3, r3, 1 *)
      Asm.li a 3 0;
      Asm.bl a "patchee";
      (* overwrite the addi with addi r3, r3, 100 *)
      Asm.la a 5 "patch_site";
      Asm.li32 a 6 (Encode.encode (Addi (3, 3, 100)));
      Asm.stw a 6 5 0;
      Asm.ins a Isync;
      Asm.bl a "patchee";
      exit_with a 3;
      Asm.label a "patchee";
      Asm.label a "patch_site";
      Asm.addi a 3 3 1;
      Asm.blr a;
      Asm.align a 16)

let t_cross_page () =
  (* Code split across two 4K pages exercises OFFPAGE branches. *)
  differential "cross page branches" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 3 0;
      Asm.li a 4 6;
      Asm.label a "loop";
      Asm.bl a "far";          (* lives on another page *)
      Asm.addi a 4 4 (-1);
      Asm.cmpwi a 4 0;
      Asm.bc a Asm.Ne "loop";
      exit_with a 3;
      Asm.org a 0x2100;        (* a different 4K page *)
      Asm.label a "far";
      Asm.addi a 3 3 5;
      Asm.blr a)

let t_mmio_seq () =
  (* Loads from the I/O sequence register must happen exactly once
     each, in order — speculative I/O loads must be deferred. *)
  differential "mmio sequence register" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li32 a 1 Mem.mmio_seq;
      Asm.li a 9 0;
      Asm.li a 10 5;
      Asm.mtctr a 10;
      Asm.label a "loop";
      Asm.lwz a 5 1 0;   (* seq register increments per read *)
      Asm.add a 9 9 5;
      Asm.bdnz a "loop";
      exit_with a 9)

let t_srawi_ca () =
  differential "srawi carry" (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 (-7);
      Asm.ins a (Srawi (2, 1, 1, false));   (* -4, CA=1 *)
      Asm.li a 3 0;
      Asm.ins a (Xo (Adde, 4, 3, 3, false));
      Asm.li a 5 8;
      Asm.ins a (Srawi (6, 5, 2, false));   (* 2, CA=0 *)
      Asm.ins a (Xo (Adde, 7, 4, 4, false));
      exit_with a 7)

let t_window_pressure () =
  (* Long dependent chain to push paths past the window limit. *)
  differential "window pressure"
    ~params:{ Params.default with window = 8 }
    (fun a ->
      Asm.org a 0x1000;
      Asm.label a "main";
      Asm.li a 1 1;
      for _ = 1 to 60 do
        Asm.add a 1 1 1
      done;
      exit_with a 1)

(* ------------------------------------------------------------------ *)
(* Ablations: each switch must preserve correctness.                   *)

let ablation name params =
  Alcotest.test_case name `Quick (fun () ->
      differential ~params name (fun a ->
          Asm.org a 0x1000;
          Asm.label a "main";
          Asm.li32 a 1 0x8000;
          Asm.li a 2 30;
          Asm.mtctr a 2;
          Asm.li a 3 0;
          Asm.li a 4 1;
          Asm.label a "loop";
          Asm.stw a 3 1 0;
          Asm.lwz a 5 1 0;
          Asm.add a 3 5 4;
          Asm.cmpwi a 3 100;
          Asm.bc a Asm.Gt "reset";
          Asm.b a "cont";
          Asm.label a "reset";
          Asm.li a 3 0;
          Asm.label a "cont";
          Asm.bdnz a "loop";
          exit_with a 3))

(* ------------------------------------------------------------------ *)
(* Random differential programs                                        *)

(* Generate structurally-valid random programs: straight-line arithmetic
   over r1..r8, guarded loads/stores into a scratch buffer, a few
   forward branches, a bounded loop. *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 1 8 in
  let body_insn =
    frequency
      [ (4, map3 (fun t a b -> `I (Insn.Xo (Add, t, a, b, false))) reg reg reg);
        (2, map3 (fun t a b -> `I (Insn.Xo (Subf, t, a, b, false))) reg reg reg);
        (2, map3 (fun t a b -> `I (Insn.Xo (Mullw, t, a, b, false))) reg reg reg);
        (2, map3 (fun t a b -> `I (Insn.X (Xor_, t, a, b, false))) reg reg reg);
        (2, map3 (fun t a b -> `I (Insn.X (And_, t, a, b, false))) reg reg reg);
        (1, map3 (fun t a b -> `I (Insn.Xo (Addc, t, a, b, false))) reg reg reg);
        (1, map3 (fun t a b -> `I (Insn.Xo (Adde, t, a, b, false))) reg reg reg);
        (2, map2 (fun t v -> `I (Insn.Addi (t, t, v))) reg (int_range (-100) 100));
        (1, map2 (fun t a -> `I (Insn.X1 (Cntlzw, t, a, false))) reg reg);
        (1, map3 (fun t a sh -> `I (Insn.Rlwinm (t, a, sh, 0, 31, false))) reg reg (int_bound 31));
        (1, map2 (fun t a -> `I (Insn.Srawi (t, a, 3, false))) reg reg);
        (2, map2 (fun t slot -> `Load (t, slot)) reg (int_bound 15));
        (2, map2 (fun s slot -> `Store (s, slot)) reg (int_bound 15));
        (1, map2 (fun r v -> `CmpSkip (r, v)) reg (int_range (-50) 50)) ]
  in
  let* n = int_range 5 40 in
  let* body = list_repeat n body_insn in
  let* loop_count = int_range 1 8 in
  return (body, loop_count)

let program_to_asm (body, loop_count) a =
  Asm.org a 0x1000;
  Asm.label a "main";
  (* deterministic-ish initial values *)
  for r = 1 to 8 do
    Asm.li32 a r (r * 0x0101 + 7)
  done;
  Asm.li32 a 20 0x8000;  (* scratch buffer *)
  Asm.li a 21 loop_count;
  Asm.mtctr a 21;
  Asm.label a "loop";
  List.iteri
    (fun i item ->
      match item with
      | `I insn -> Asm.ins a insn
      | `Load (t, slot) -> Asm.lwz a t 20 (4 * slot)
      | `Store (s, slot) -> Asm.stw a s 20 (4 * slot)
      | `CmpSkip (r, v) ->
        let lbl = Printf.sprintf "skip%d" i in
        Asm.cmpwi a r v;
        Asm.bc a Asm.Lt lbl;
        Asm.addi a r r 1;
        Asm.label a lbl)
    body;
  Asm.bdnz a "loop";
  (* fold state into r3 *)
  Asm.li a 3 0;
  for r = 1 to 8 do
    Asm.add a 3 3 r
  done;
  Asm.halt a ~scratch:31 3

let prop_differential params_name params =
  QCheck.Test.make
    ~name:("random programs: daisy = interpreter (" ^ params_name ^ ")")
    ~count:120
    (QCheck.make gen_program)
    (fun prog ->
      let build = program_to_asm prog in
      let rcode, rst, rmem, _ = run_ref build ~entry:"main" ~fuel:500_000 in
      let dcode, dst, dmem, _ =
        run_daisy ~params build ~entry:"main" ~fuel:500_000
      in
      rcode = dcode && Machine.equal rst dst && Bytes.equal rmem.bytes dmem.bytes)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_differential "default" Params.default;
        prop_differential "no-rename" { Params.default with rename = false };
        prop_differential "no-load-spec" { Params.default with load_spec = false };
        prop_differential "single-path" { Params.default with multipath = false };
        prop_differential "tiny-machine"
          { Params.default with config = Vliw.Config.figure_5_1.(0) };
        prop_differential "small-pages" { Params.default with page_size = 256 } ]
  in
  Alcotest.run "daisy"
    [ ( "differential",
        [ Alcotest.test_case "straightline" `Quick t_straightline;
          Alcotest.test_case "branches" `Quick t_branches;
          Alcotest.test_case "bdnz sum" `Quick t_bdnz_sum;
          Alcotest.test_case "memory" `Quick t_memory;
          Alcotest.test_case "calls" `Quick t_call_chain;
          Alcotest.test_case "carry chain" `Quick t_carry_chain;
          Alcotest.test_case "cr ops" `Quick t_cr_ops;
          Alcotest.test_case "mtcrf" `Quick t_mtcrf;
          Alcotest.test_case "lmw/stmw" `Quick t_lmw_stmw;
          Alcotest.test_case "indirect" `Quick t_indirect;
          Alcotest.test_case "syscall" `Quick t_syscall;
          Alcotest.test_case "page fault" `Quick t_page_fault;
          Alcotest.test_case "guarded faulting load" `Quick t_spec_load_fault;
          Alcotest.test_case "store-load alias" `Quick t_alias;
          Alcotest.test_case "self-modifying" `Quick t_self_modify;
          Alcotest.test_case "cross page" `Quick t_cross_page;
          Alcotest.test_case "mmio sequence" `Quick t_mmio_seq;
          Alcotest.test_case "srawi carry" `Quick t_srawi_ca;
          Alcotest.test_case "window pressure" `Quick t_window_pressure ] );
      ( "ablations",
        [ ablation "no renaming" { Params.default with rename = false };
          ablation "no load speculation" { Params.default with load_spec = false };
          ablation "single path" { Params.default with multipath = false };
          ablation "256-byte pages" { Params.default with page_size = 256 };
          ablation "smallest machine"
            { Params.default with config = Vliw.Config.figure_5_1.(0) } ] );
      ("random", qsuite) ]
