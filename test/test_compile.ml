(* Staged (closure-compiled) VLIW execution, [Vliw.Compile], against its
   executable specification, the interpretive tree walker [Vliw.Exec].

   Three layers of evidence that staging preserves the semantics:
   hand-built trees run through [Exec.run] and [Compile.exec_vliw] on
   identical states (outcome, rollback reason, accesses and final state
   compared field by field), a qcheck differential over random
   straight-line VLIWs, and seeded fuzz corpora (clean and the full
   fault cocktail) run by the VMM, where [Vmm.Run.run] verifies every
   page bit-for-bit against the reference interpreter. *)

open Vliw
module T = Tree
module C = Compile

let seq = ref 0

(* reset the op-sequence counter: equivalence checks build the same
   tree twice (once per engine) and must number ops identically *)
let mk () =
  seq := 0;
  T.create ~id:0 ~precise_entry:0x1000

let add tip op =
  incr seq;
  T.add_op tip !seq op

(* ------------------------------------------------------------------ *)
(* Outcome comparison                                                  *)

(* Both engines' results folded into one comparable shape.  The staged
   engine reports its exit as a [C.cexit]; map it back to the tree form
   it was compiled from. *)
let exit_of_cexit : C.cexit -> T.exit = function
  | C.Cnext cv -> T.Next cv.c_id
  | C.Cnext_id id -> T.Next id
  | C.Conpage l -> T.OnPage l.l_off
  | C.Coffpage a -> T.OffPage a
  | C.Cindirect (l, k) -> T.Indirect (l, k)
  | C.Ctrap tr -> T.Trap tr

type outcome =
  | ODone of T.exit * int * Exec.access list  (** exit, nops, accesses *)
  | ORoll of Exec.reason
  | OError of string

(* Accesses are compared as sets keyed by [seq]: the staged engine
   reports them in program order, the interpretive one in the order its
   write list happened to accumulate. *)
let by_seq l =
  List.sort (fun (a : Exec.access) (b : Exec.access) -> compare a.seq b.seq) l

let run_interp ?(alias = true) st mem v =
  match Exec.run st mem ~alias_check:(fun _ -> alias) v with
  | Exec.Done { exit; accesses; nops } -> ODone (exit, nops, by_seq accesses)
  | Exec.Rollback r -> ORoll r
  | exception Exec.Error m -> OError m

let run_compiled ?(alias = true) cp cv =
  match C.exec_vliw cp cv ~alias_check:(fun _ -> alias) with
  | leaf ->
    ODone
      (exit_of_cexit leaf.C.exit, leaf.C.nops, by_seq (C.accesses cp.C.scratch))
  | exception Exec.Roll r -> ORoll r
  | exception Exec.Error m -> OError m

let outcome_str = function
  | ODone (_, nops, accs) ->
    Printf.sprintf "Done (nops %d, %d accesses)" nops (List.length accs)
  | ORoll Exec.Ralias -> "Rollback alias"
  | ORoll (Exec.Rfault { addr; write }) ->
    Printf.sprintf "Rollback fault %x write:%b" addr write
  | ORoll (Exec.Rtag _) -> "Rollback tag"
  | OError m -> "Error " ^ m

let outcome_t = Alcotest.testable (fun fmt o -> Fmt.string fmt (outcome_str o)) ( = )

(* Run one tree under both engines from identical initial states and
   require the same outcome and the same final machine, pool, memory,
   device and console state. *)
let check_equiv ?(setup = fun (_ : Vstate.t) (_ : Ppc.Mem.t) -> ()) ?(alias = true)
    name (build : unit -> T.t) =
  let fresh () =
    let st = Vstate.create (Ppc.Machine.create ()) in
    let mem = Ppc.Mem.create 0x2000 in
    setup st mem;
    (st, mem)
  in
  let ist, imem = fresh () in
  let oi = run_interp ~alias ist imem (build ()) in
  let cst, cmem = fresh () in
  let cp = C.stage ~st:cst ~mem:cmem ~scratch:(C.create_scratch ()) [| build () |] in
  let oc = run_compiled ~alias cp (C.get cp 0) in
  Alcotest.check outcome_t (name ^ ": outcome") oi oc;
  Alcotest.(check bool)
    (name ^ ": architected state")
    true
    (Ppc.Machine.equal ist.m cst.m);
  Alcotest.(check bool) (name ^ ": pool") true (ist.hi = cst.hi && ist.ext = cst.ext);
  Alcotest.(check bool)
    (name ^ ": cr pool")
    true
    (ist.crhi = cst.crhi && ist.tags = cst.tags && ist.crtags = cst.crtags);
  Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal imem.bytes cmem.bytes);
  Alcotest.(check int) (name ^ ": device seq") imem.seq cmem.seq;
  Alcotest.(check string)
    (name ^ ": console")
    (Ppc.Mem.output imem) (Ppc.Mem.output cmem)

(* ------------------------------------------------------------------ *)
(* Hand-built trees                                                    *)

let test_parallel_swap () =
  check_equiv "swap" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 2; imm = 0; spec = false });
      add v.root (Op.BinI { op = IAdd; rt = 2; ra = 1; imm = 0; spec = false });
      T.close v.root (T.OffPage 0);
      v)
    ~setup:(fun st _ ->
      st.m.gpr.(1) <- 111;
      st.m.gpr.(2) <- 222)

let test_branch_path () =
  (* both senses of a compiled branch select the same leaf as the walker *)
  List.iter
    (fun cr0 ->
      check_equiv (Printf.sprintf "branch cr0=%x" cr0) (fun () ->
          let v = mk () in
          add v.root (Op.BinI { op = IAdd; rt = 3; ra = Op.zero; imm = 7; spec = false });
          let t, f = T.split v.root { bit = 2; sense = true } in
          add t (Op.BinI { op = IAdd; rt = 4; ra = Op.zero; imm = 1; spec = false });
          T.close t (T.OffPage 0x2000);
          add f (Op.BinI { op = IAdd; rt = 4; ra = Op.zero; imm = 2; spec = false });
          T.close f (T.OnPage 0x40);
          v)
        ~setup:(fun st _ -> Ppc.Machine.set_crf st.m 0 cr0))
    [ 0x0; 0x2; 0xF ]

let test_fault_rollback () =
  check_equiv "nonspec faulting load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_store_fault_rollback () =
  check_equiv "out-of-bounds store" (fun () ->
      let v = mk () in
      add v.root (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x10_0000 });
      T.close v.root (T.Next 1);
      v)

let test_spec_load_tags () =
  (* speculative faulting load tags instead of rolling back; consuming
     the tag non-speculatively rolls back in both engines *)
  check_equiv "speculative faulting load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 40; imm = 0; spec = false });
      T.close v.root (T.Next 1);
      v)

let test_tagged_branch () =
  check_equiv "branch on tagged condition" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add v.root (Op.CmpIOp { signed = true; crt = 9; ra = 40; imm = 0; spec = true });
      T.close v.root (T.Next 1);
      v);
  (* consuming VLIW: test the pool CR written above *)
  let build () =
    let v = mk () in
    let t, f = T.split v.root { bit = (9 * 4) + 2; sense = true } in
    T.close t (T.OffPage 0);
    T.close f (T.OffPage 4);
    v
  in
  let setup (st : Vstate.t) _ = Vstate.set_cr_tag st 9 (Vstate.Tfault 0x10_0000) in
  check_equiv "consume tagged CR" build ~setup

let test_mmio_deferred () =
  (* a non-speculative MMIO load defers the device read to apply: the
     sequence register ticks exactly once, in both engines *)
  check_equiv "mmio seq load" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_mmio_rolled_back () =
  (* ... and when a later op faults, the device is never touched *)
  check_equiv "mmio load + fault" (fun () ->
      let v = mk () in
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      add v.root
        (Op.LoadOp { w = Word; alg = false; rt = 2; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close v.root (T.Next 1);
      v)

let test_alias_veto () =
  check_equiv "alias veto" ~alias:false (fun () ->
      let v = mk () in
      add v.root (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x100 });
      T.close v.root (T.Next 1);
      v)

let test_open_tip () =
  check_equiv "open tip" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 5; spec = false });
      v)

let test_corrupt_loc () =
  (* a corrupted operand location surfaces as the same typed Error *)
  check_equiv "corrupt source loc" (fun () ->
      let v = mk () in
      add v.root (Op.BinI { op = IAdd; rt = 1; ra = 77; imm = 0; spec = false });
      T.close v.root (T.Next 1);
      v)

let test_carry_chain () =
  check_equiv "carry chain" (fun () ->
      let v = mk () in
      add v.root
        (Op.Bin { op = Addc; rt = 3; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      add v.root
        (Op.Bin { op = Adde; rt = 4; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      T.close v.root (T.Next 1);
      v)
    ~setup:(fun st _ ->
      st.m.gpr.(1) <- 0xFFFF_FFFF;
      st.m.gpr.(2) <- 2;
      st.m.xer_ca <- true)

(* ------------------------------------------------------------------ *)
(* qcheck differential: random straight-line VLIWs                     *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (frequency
         [ (4,
            map3
              (fun rt ra imm -> Op.BinI { op = IAdd; rt; ra; imm; spec = false })
              (int_range 0 31) (int_range 0 31) (int_range (-100) 100));
           (2,
            map3
              (fun rt ra rb ->
                Op.Bin { op = Add; rt; ra; rb; ca = Op.ca_loc; spec = false })
              (int_range 0 31) (int_range 0 31) (int_range 0 31));
           (2,
            map2
              (fun rt off ->
                Op.LoadOp { w = Word; alg = false; rt; base = Op.zero;
                            off = OImm (off * 4); spec = false; passed = false })
              (int_range 0 31) (int_range 0 100));
           (1,
            map2
              (fun rt off ->
                Op.LoadOp { w = Word; alg = false; rt = 32 + rt; base = Op.zero;
                            off = OImm (0x10_0000 + (off * 4)); spec = true;
                            passed = false })
              (int_range 0 8) (int_range 0 100));
           (2,
            map2
              (fun rs off ->
                Op.StoreOp { w = Word; rs; base = Op.zero; off = OImm (off * 4) })
              (int_range 0 31) (int_range 0 100));
           (1,
            map2
              (fun crt ra -> Op.CmpIOp { signed = true; crt; ra; imm = 0; spec = false })
              (int_range 0 7) (int_range 0 31)) ]))

let prop_differential =
  QCheck.Test.make ~name:"random VLIW: staged = interpretive" ~count:500
    (QCheck.make gen_ops
       ~print:(fun ops -> String.concat "; " (List.map Op.to_string ops)))
    (fun ops ->
      let build () =
        let v = mk () in
        List.iter (add v.root) ops;
        T.close v.root (T.Next 1);
        v
      in
      let fresh () =
        let st = Vstate.create (Ppc.Machine.create ()) in
        let mem = Ppc.Mem.create 0x2000 in
        for r = 0 to 31 do
          st.m.gpr.(r) <- r * 12345
        done;
        (st, mem)
      in
      let ist, imem = fresh () in
      let oi = run_interp ist imem (build ()) in
      let cst, cmem = fresh () in
      let cp =
        C.stage ~st:cst ~mem:cmem ~scratch:(C.create_scratch ()) [| build () |]
      in
      let oc = run_compiled cp (C.get cp 0) in
      let ok =
        oi = oc
        && Ppc.Machine.equal ist.m cst.m
        && ist.hi = cst.hi && ist.tags = cst.tags
        && Bytes.equal imem.bytes cmem.bytes
      in
      if not ok then begin
        (* counterexample detail beyond the shrunk op list *)
        Printf.eprintf "diverged: %s vs %s\n" (outcome_str oi) (outcome_str oc);
        Printf.eprintf "machine_eq %b hi %b tags %b mem %b\n"
          (Ppc.Machine.equal ist.m cst.m) (ist.hi = cst.hi) (ist.tags = cst.tags)
          (Bytes.equal imem.bytes cmem.bytes);
        (match (oi, oc) with
        | ODone (e1, n1, a1), ODone (e2, n2, a2) ->
          Printf.eprintf "exits_eq %b nops %d/%d accs %d/%d\n" (e1 = e2) n1
            n2 (List.length a1) (List.length a2);
          List.iter2
            (fun (x : Exec.access) (y : Exec.access) ->
              Printf.eprintf
                "  acc seq %d/%d addr %x/%x bytes %d/%d passed %b/%b store %b/%b\n"
                x.seq y.seq x.addr y.addr x.bytes y.bytes x.passed_store
                y.passed_store x.store y.store)
            a1 a2
        | _ -> ())
      end;
      ok)

(* ------------------------------------------------------------------ *)
(* Direct linking                                                      *)

let test_direct_link_patched () =
  (* in-range Next exits become direct closure references at staging *)
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v0 = mk () in
  T.close v0.root (T.Next 1);
  let v1 = T.create ~id:1 ~precise_entry:0x1004 in
  T.close v1.root (T.Next 99);
  let cp = C.stage ~st ~mem ~scratch:(C.create_scratch ()) [| v0; v1 |] in
  let leaf0 = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  (match leaf0.C.exit with
  | C.Cnext cv -> Alcotest.(check int) "linked to tree 1" 1 cv.C.c_id
  | _ -> Alcotest.fail "expected a direct-linked Next");
  let leaf1 = C.exec_vliw cp (C.get cp 1) ~alias_check:(fun _ -> true) in
  match leaf1.C.exit with
  | C.Cnext_id 99 -> ()
  | _ -> Alcotest.fail "out-of-range Next must stay unlinked"

let test_onpage_memo () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v = mk () in
  T.close v.root (T.OnPage 0x40);
  let cp = C.stage ~st ~mem ~scratch:(C.create_scratch ()) [| v |] in
  let leaf = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  match leaf.C.exit with
  | C.Conpage l ->
    Alcotest.(check int) "offset kept" 0x40 l.C.l_off;
    Alcotest.(check int) "starts unresolved" (-1) l.C.l_entry;
    (* the monitor memoizes the resolved id here *)
    l.C.l_entry <- 3;
    let leaf' = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
    (match leaf'.C.exit with
    | C.Conpage l' -> Alcotest.(check int) "memo survives" 3 l'.C.l_entry
    | _ -> Alcotest.fail "exit changed shape")
  | _ -> Alcotest.fail "expected OnPage"

(* ------------------------------------------------------------------ *)
(* Whole programs through the verified harness                         *)

let test_fuzz_clean () =
  let s = Fault.Fuzz.fuzz ~seed:7 ~pages:40 () in
  Alcotest.(check int) "clean corpus mismatches" 0 s.mismatched

let test_fuzz_cocktail () =
  let s = Fault.Fuzz.fuzz ~faults:Fault.Inject.cocktail ~seed:9 ~pages:30 () in
  Alcotest.(check int) "cocktail corpus mismatches" 0 s.mismatched

let () =
  Alcotest.run "compile"
    [ ( "equivalence",
        [ Alcotest.test_case "parallel swap" `Quick test_parallel_swap;
          Alcotest.test_case "branch paths" `Quick test_branch_path;
          Alcotest.test_case "fault rollback" `Quick test_fault_rollback;
          Alcotest.test_case "store fault rollback" `Quick
            test_store_fault_rollback;
          Alcotest.test_case "speculative load tags" `Quick test_spec_load_tags;
          Alcotest.test_case "tagged branch" `Quick test_tagged_branch;
          Alcotest.test_case "mmio deferred" `Quick test_mmio_deferred;
          Alcotest.test_case "mmio rolled back" `Quick test_mmio_rolled_back;
          Alcotest.test_case "alias veto" `Quick test_alias_veto;
          Alcotest.test_case "open tip" `Quick test_open_tip;
          Alcotest.test_case "corrupt loc" `Quick test_corrupt_loc;
          Alcotest.test_case "carry chain" `Quick test_carry_chain;
          QCheck_alcotest.to_alcotest prop_differential ] );
      ( "linking",
        [ Alcotest.test_case "Next direct-linked" `Quick test_direct_link_patched;
          Alcotest.test_case "OnPage memoized" `Quick test_onpage_memo ] );
      ( "programs",
        [ Alcotest.test_case "fuzz corpus, clean" `Slow test_fuzz_clean;
          Alcotest.test_case "fuzz corpus, cocktail" `Slow test_fuzz_cocktail ] )
    ]
