(* Unit tests for the tree-VLIW machine: tree construction, resource
   accounting, the two-phase executor's parallel semantics, exception
   tags, carry extenders, rollback atomicity and the size model. *)

open Vliw
module T = Tree

let mk () = T.create ~id:0 ~precise_entry:0x1000

let run_vliw ?(st = Vstate.create (Ppc.Machine.create ())) ?(mem = Ppc.Mem.create 0x1000)
    vliw =
  (Exec.run st mem vliw, st, mem)

let seq = ref 0
let add tip op =
  incr seq;
  T.add_op tip !seq op

(* ------------------------------------------------------------------ *)
(* Tree structure                                                      *)

let test_split_close () =
  let v = mk () in
  add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 5; spec = false });
  let taken, fall = T.split (T.root v) { bit = 2; sense = true } in
  T.close taken (T.OffPage 0x2000);
  add fall (Op.BinI { op = IAdd; rt = 2; ra = Op.zero; imm = 7; spec = false });
  T.close fall (T.Next 1);
  Alcotest.(check int) "op count" 2 (T.op_count v);
  Alcotest.(check bool) "size positive" true (Layout.size v > 8)

let test_size_model () =
  let v = mk () in
  let base = Layout.size v in
  add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 1; spec = false });
  Alcotest.(check int) "op adds 4 bytes" (base + 4) (Layout.size v);
  let t, f = T.split (T.root v) { bit = 0; sense = true } in
  T.close t (T.OffPage 0);
  T.close f (T.OffPage 0);
  (* split: +4 test, two exits replace the one open tip: +4 *)
  Alcotest.(check int) "branch adds test+exit" (base + 12) (Layout.size v)

(* ------------------------------------------------------------------ *)
(* Config resource model                                               *)

let test_config_fits () =
  let c = Config.figure_5_1.(0) in
  (* 4-2-2-1 *)
  Alcotest.(check bool) "alu bound" false (Config.fits c ~alu:3 ~mem:0 ~br:0);
  Alcotest.(check bool) "mem bound" false (Config.fits c ~alu:0 ~mem:3 ~br:0);
  Alcotest.(check bool) "issue bound" false (Config.fits c ~alu:2 ~mem:2 ~br:0 |> not);
  Alcotest.(check bool) "issue total" true (Config.fits c ~alu:2 ~mem:2 ~br:1);
  Alcotest.(check bool) "branch bound" false (Config.fits c ~alu:1 ~mem:1 ~br:2);
  let big = Config.default in
  Alcotest.(check bool) "24-issue total" false
    (Config.fits big ~alu:16 ~mem:8 ~br:7 |> not);
  Alcotest.(check bool) "24-issue alu cap" false (Config.fits big ~alu:17 ~mem:0 ~br:0)

(* ------------------------------------------------------------------ *)
(* Executor semantics                                                  *)

let test_parallel_reads () =
  (* swap via parallel semantics: both ops read entry values *)
  let v = mk () in
  add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = 2; imm = 0; spec = false });
  add (T.root v) (Op.BinI { op = IAdd; rt = 2; ra = 1; imm = 0; spec = false });
  T.close (T.root v) (T.OffPage 0);
  let st = Vstate.create (Ppc.Machine.create ()) in
  st.m.gpr.(1) <- 111;
  st.m.gpr.(2) <- 222;
  (match run_vliw ~st v with
  | Exec.Done _, _, _ -> ()
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check int) "r1 gets old r2" 222 st.m.gpr.(1);
  Alcotest.(check int) "r2 gets old r1" 111 st.m.gpr.(2)

let test_commit_order () =
  (* two commits of the same architected register: later wins *)
  let v = mk () in
  add (T.root v) (Op.CommitG { arch = 3; src = 32 });
  add (T.root v) (Op.CommitG { arch = 3; src = 33 });
  T.close (T.root v) (T.OffPage 0);
  let st = Vstate.create (Ppc.Machine.create ()) in
  Vstate.set_gpr st 32 10;
  Vstate.set_gpr st 33 20;
  ignore (run_vliw ~st v);
  Alcotest.(check int) "last commit wins" 20 st.m.gpr.(3)

let test_tag_propagation () =
  (* speculative chain: faulting load -> consumer -> commit raises *)
  let v = mk () in
  add (T.root v)
    (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                 off = OImm 0x10_0000; spec = true; passed = false });
  T.close (T.root v) (T.Next 1);
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  (match Exec.run st mem v with
  | Done _ -> ()
  | Rollback _ -> Alcotest.fail "speculative fault must not roll back");
  Alcotest.(check bool) "tag set" true (Vstate.get st 40 <> (0, Vstate.Clean));
  (* a speculative consumer propagates *)
  let v2 = mk () in
  add (T.root v2) (Op.BinI { op = IAdd; rt = 41; ra = 40; imm = 1; spec = true });
  T.close (T.root v2) (T.Next 2);
  ignore (Exec.run st mem v2);
  (match Vstate.get st 41 with
  | _, Vstate.Tfault _ -> ()
  | _ -> Alcotest.fail "tag must propagate through speculative ops");
  (* committing the tagged value rolls back *)
  let v3 = mk () in
  add (T.root v3) (Op.CommitG { arch = 5; src = 41 });
  T.close (T.root v3) (T.Next 3);
  match Exec.run st mem v3 with
  | Rollback (Rtag _) -> ()
  | _ -> Alcotest.fail "commit of tagged register must roll back"

(* [Vstate] stores tags coded as ints; every tag survives the round trip *)
let test_tag_codes () =
  List.iter
    (fun t ->
      Alcotest.(check bool) "round trip" true
        (Vstate.tag_of_code (Vstate.code_of_tag t) = t))
    [ Vstate.Clean; Tmmio; Tfault 0; Tfault 0xFFFF_FFFF ];
  Alcotest.(check int) "clean is 0" 0 (Vstate.code_of_tag Vstate.Clean)

let test_rollback_atomic () =
  (* a VLIW that writes two registers and then faults must change nothing *)
  let v = mk () in
  add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 42; spec = false });
  add (T.root v) (Op.CommitG { arch = 2; src = 35 });
  add (T.root v)
    (Op.LoadOp { w = Word; alg = false; rt = 3; base = Op.zero;
                 off = OImm 0x10_0000; spec = false; passed = false });
  T.close (T.root v) (T.Next 1);
  let st = Vstate.create (Ppc.Machine.create ()) in
  Vstate.set_gpr st 35 7;
  let snapshot = Ppc.Machine.copy st.m in
  let mem = Ppc.Mem.create 0x1000 in
  (match Exec.run st mem v with
  | Rollback (Rfault { addr; write = false }) ->
    Alcotest.(check int) "fault address" 0x10_0000 addr
  | _ -> Alcotest.fail "expected fault rollback");
  Alcotest.(check bool) "architected state unchanged" true
    (Ppc.Machine.equal snapshot st.m)

let test_carry_extender () =
  (* renamed addc: carry goes to the extender; CommitCa moves it to CA *)
  let v = mk () in
  add (T.root v) (Op.BinI { op = IAddc; rt = 40; ra = 1; imm = 1; spec = true });
  T.close (T.root v) (T.Next 1);
  let st = Vstate.create (Ppc.Machine.create ()) in
  st.m.gpr.(1) <- 0xFFFF_FFFF;
  let mem = Ppc.Mem.create 0x1000 in
  ignore (Exec.run st mem v);
  Alcotest.(check bool) "extender set" true (Vstate.get_ca st 40);
  Alcotest.(check bool) "machine CA untouched" false st.m.xer_ca;
  let v2 = mk () in
  add (T.root v2) (Op.CommitCa { src = 40 });
  T.close (T.root v2) (T.Next 2);
  ignore (Exec.run st mem v2);
  Alcotest.(check bool) "CA committed" true st.m.xer_ca

let test_branch_selects_path () =
  let v = mk () in
  let taken, fall = T.split (T.root v) { bit = Ppc.Insn.Crbit.eq; sense = true } in
  add taken (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 1; spec = false });
  T.close taken (T.OffPage 0);
  add fall (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 2; spec = false });
  T.close fall (T.OffPage 4);
  let st = Vstate.create (Ppc.Machine.create ()) in
  Ppc.Machine.set_crf st.m 0 0b0010;  (* EQ *)
  let mem = Ppc.Mem.create 0x1000 in
  (match Exec.run st mem v with
  | Done { exit = T.OffPage 0; _ } -> ()
  | _ -> Alcotest.fail "taken path expected");
  Alcotest.(check int) "taken side ops ran" 1 st.m.gpr.(1);
  Ppc.Machine.set_crf st.m 0 0b1000;  (* LT *)
  (match Exec.run st mem v with
  | Done { exit = T.OffPage 4; _ } -> ()
  | _ -> Alcotest.fail "fall path expected");
  Alcotest.(check int) "fall side ops ran" 2 st.m.gpr.(1)

let test_tagged_branch_rolls_back () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  (* produce a tagged condition field (dependent ops in separate
     VLIWs — parallel semantics would otherwise read the clean entry
     value of r40) *)
  let v0 = mk () in
  add (T.root v0)
    (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                 off = OImm 0x10_0000; spec = true; passed = false });
  T.close (T.root v0) (T.Next 1);
  ignore (Exec.run st mem v0);
  let v1 = mk () in
  add (T.root v1) (Op.CmpIOp { signed = true; crt = 9; ra = 40; imm = 0; spec = true });
  T.close (T.root v1) (T.Next 1);
  ignore (Exec.run st mem v1);
  let v = mk () in
  let t, f = T.split (T.root v) { bit = (9 * 4) + 2; sense = true } in
  T.close t (T.OffPage 0);
  T.close f (T.OffPage 4);
  match Exec.run st mem v with
  | Rollback (Rtag _) -> ()
  | _ -> Alcotest.fail "branch on tagged condition must roll back"

let test_mmio_load_deferred () =
  (* non-speculative MMIO load applies its side effect only on success *)
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v = mk () in
  add (T.root v)
    (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                 off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
  (* and a faulting op after it *)
  add (T.root v)
    (Op.LoadOp { w = Word; alg = false; rt = 2; base = Op.zero;
                 off = OImm 0x10_0000; spec = false; passed = false });
  T.close (T.root v) (T.Next 1);
  (match Exec.run st mem v with Rollback _ -> () | _ -> Alcotest.fail "rollback");
  Alcotest.(check int) "device untouched on rollback" 0 mem.seq;
  let v2 = mk () in
  add (T.root v2)
    (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                 off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
  T.close (T.root v2) (T.Next 1);
  ignore (Exec.run st mem v2);
  Alcotest.(check int) "device read once" 1 mem.seq;
  Alcotest.(check int) "value delivered" 1 st.m.gpr.(1)

let test_alias_check_called () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v = mk () in
  add (T.root v) (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x100 });
  T.close (T.root v) (T.Next 1);
  let called = ref false in
  (match Exec.run st mem ~alias_check:(fun accs ->
       called := true;
       Alcotest.(check int) "one access" 1 (List.length accs);
       false)
      v
   with
  | Rollback Ralias -> ()
  | _ -> Alcotest.fail "alias veto must roll back");
  Alcotest.(check bool) "callback ran" true !called;
  Alcotest.(check int) "store not applied" 0 (Ppc.Mem.load32 mem 0x100)

(* qcheck: a random straight-line VLIW either completes or rolls back
   with NO architected change. *)
let prop_rollback_atomicity =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (frequency
           [ (4, map3 (fun rt ra imm -> Op.BinI { op = IAdd; rt; ra; imm; spec = false })
                (int_range 0 31) (int_range 0 31) (int_range (-50) 50));
             (2, map (fun rt ->
                  Op.LoadOp { w = Word; alg = false; rt; base = Op.zero;
                              off = OImm 0x20_0000; spec = false; passed = false })
                (int_range 0 31));
             (2, map2 (fun rs off ->
                  Op.StoreOp { w = Word; rs; base = Op.zero; off = OImm (off * 4) })
                (int_range 0 31) (int_range 0 100)) ]))
  in
  QCheck.Test.make ~name:"rollback leaves architected state unchanged" ~count:300
    (QCheck.make gen) (fun ops ->
      let v = mk () in
      List.iteri (fun i op -> T.add_op (T.root v) i op) ops;
      T.close (T.root v) (T.Next 1);
      let st = Vstate.create (Ppc.Machine.create ()) in
      for r = 0 to 31 do
        st.m.gpr.(r) <- r * 1234
      done;
      let snap = Ppc.Machine.copy st.m in
      let mem = Ppc.Mem.create 0x1000 in
      match Exec.run st mem v with
      | Done _ -> true
      | Rollback _ -> Ppc.Machine.equal snap st.m)

let () =
  Alcotest.run "vliw"
    [ ( "tree",
        [ Alcotest.test_case "split and close" `Quick test_split_close;
          Alcotest.test_case "size model" `Quick test_size_model ] );
      ("config", [ Alcotest.test_case "fits" `Quick test_config_fits ]);
      ( "exec",
        [ Alcotest.test_case "parallel reads" `Quick test_parallel_reads;
          Alcotest.test_case "commit order" `Quick test_commit_order;
          Alcotest.test_case "tag propagation" `Quick test_tag_propagation;
          Alcotest.test_case "tag codes" `Quick test_tag_codes;
          Alcotest.test_case "rollback atomicity" `Quick test_rollback_atomic;
          Alcotest.test_case "carry extender" `Quick test_carry_extender;
          Alcotest.test_case "branch path select" `Quick test_branch_selects_path;
          Alcotest.test_case "tagged branch" `Quick test_tagged_branch_rolls_back;
          Alcotest.test_case "mmio deferral" `Quick test_mmio_load_deferred;
          Alcotest.test_case "alias veto" `Quick test_alias_check_called;
          QCheck_alcotest.to_alcotest prop_rollback_atomicity ] ) ]
