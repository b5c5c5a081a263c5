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
   device and console state.  [post] then checks the staged engine's
   outcome and final state on their own. *)
let check_equiv ?(setup = fun (_ : Vstate.t) (_ : Ppc.Mem.t) -> ()) ?(alias = true)
    ?(post = fun (_ : outcome) (_ : Vstate.t) -> ()) name (build : unit -> T.t) =
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
    (Ppc.Mem.output imem) (Ppc.Mem.output cmem);
  post oc cst

(* ------------------------------------------------------------------ *)
(* Hand-built trees                                                    *)

let test_parallel_swap () =
  check_equiv "swap" (fun () ->
      let v = mk () in
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = 2; imm = 0; spec = false });
      add (T.root v) (Op.BinI { op = IAdd; rt = 2; ra = 1; imm = 0; spec = false });
      T.close (T.root v) (T.OffPage 0);
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
          add (T.root v) (Op.BinI { op = IAdd; rt = 3; ra = Op.zero; imm = 7; spec = false });
          let t, f = T.split (T.root v) { bit = 2; sense = true } in
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
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close (T.root v) (T.Next 1);
      v)

let test_store_fault_rollback () =
  check_equiv "out-of-bounds store" (fun () ->
      let v = mk () in
      add (T.root v) (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x10_0000 });
      T.close (T.root v) (T.Next 1);
      v)

let test_spec_load_tags () =
  (* speculative faulting load tags instead of rolling back; consuming
     the tag non-speculatively rolls back in both engines *)
  check_equiv "speculative faulting load" (fun () ->
      let v = mk () in
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = 40; imm = 0; spec = false });
      T.close (T.root v) (T.Next 1);
      v)

let test_tagged_branch () =
  check_equiv "branch on tagged condition" (fun () ->
      let v = mk () in
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x10_0000; spec = true; passed = false });
      add (T.root v) (Op.CmpIOp { signed = true; crt = 9; ra = 40; imm = 0; spec = true });
      T.close (T.root v) (T.Next 1);
      v);
  (* consuming VLIW: test the pool CR written above *)
  let build () =
    let v = mk () in
    let t, f = T.split (T.root v) { bit = (9 * 4) + 2; sense = true } in
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
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      T.close (T.root v) (T.Next 1);
      v)

let test_mmio_rolled_back () =
  (* ... and when a later op faults, the device is never touched *)
  check_equiv "mmio load + fault" (fun () ->
      let v = mk () in
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 1; base = Op.zero;
                     off = OImm Ppc.Mem.mmio_seq; spec = false; passed = false });
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 2; base = Op.zero;
                     off = OImm 0x10_0000; spec = false; passed = false });
      T.close (T.root v) (T.Next 1);
      v)

let test_alias_veto () =
  check_equiv "alias veto" ~alias:false (fun () ->
      let v = mk () in
      add (T.root v) (Op.StoreOp { w = Word; rs = 1; base = Op.zero; off = OImm 0x100 });
      T.close (T.root v) (T.Next 1);
      v)

let test_open_tip () =
  check_equiv "open tip" (fun () ->
      let v = mk () in
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 5; spec = false });
      v)

let test_corrupt_loc () =
  (* a corrupted operand location surfaces as the same typed Error *)
  check_equiv "corrupt source loc" (fun () ->
      let v = mk () in
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = 77; imm = 0; spec = false });
      T.close (T.root v) (T.Next 1);
      v)

let test_carry_chain () =
  check_equiv "carry chain" (fun () ->
      let v = mk () in
      add (T.root v)
        (Op.Bin { op = Addc; rt = 3; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      add (T.root v)
        (Op.Bin { op = Adde; rt = 4; ra = 1; rb = 2; ca = Op.ca_loc; spec = false });
      T.close (T.root v) (T.Next 1);
      v)
    ~setup:(fun st _ ->
      st.m.gpr.(1) <- 0xFFFF_FFFF;
      st.m.gpr.(2) <- 2;
      st.m.xer_ca <- true)

(* The tag shapes of the array-read operands, beside [test_spec_load_tags]
   and [test_tagged_branch] above. *)
let test_tag_propagates () =
  check_equiv "speculative add, tagged second operand"
    (fun () ->
      let v = mk () in
      add (T.root v) (Op.Bin { op = Add; rt = 40; ra = 33; rb = 34; ca = Op.ca_loc;
                           spec = true });
      T.close (T.root v) (T.Next 1);
      v)
    ~setup:(fun st _ ->
      Vstate.set_gpr st 33 5;
      Vstate.set_gpr st 34 6;
      Vstate.set_tag st 34 Vstate.Tmmio)
    ~post:(fun o st ->
      Alcotest.(check bool) "completes" true (match o with ODone _ -> true | _ -> false);
      Alcotest.(check bool) "tag propagated" true (Vstate.get st 40 = (11, Vstate.Tmmio)))

let test_tagged_commit () =
  (* the pool write before the commit must not land either *)
  check_equiv "commit of a tagged register"
    (fun () ->
      let v = mk () in
      add (T.root v) (Op.BinI { op = IAdd; rt = 40; ra = Op.zero; imm = 9; spec = true });
      add (T.root v) (Op.CommitG { arch = 3; src = 35 });
      T.close (T.root v) (T.Next 1);
      v)
    ~setup:(fun st _ ->
      Vstate.set_gpr st 35 7;
      Vstate.set_tag st 35 (Vstate.Tfault 0x1234))
    ~post:(fun o st ->
      Alcotest.check outcome_t "rolls back on the tag"
        (ORoll (Exec.Rtag (Vstate.Tfault 0x1234))) o;
      Alcotest.(check bool) "pool untouched" true
        (Vstate.get st 40 = (0, Vstate.Clean) && st.m.gpr.(3) = 0))

let test_store_free_skips_alias () =
  check_equiv "store-free VLIW, vetoing alias check" ~alias:false
    (fun () ->
      let v = mk () in
      add (T.root v)
        (Op.LoadOp { w = Word; alg = false; rt = 40; base = Op.zero;
                     off = OImm 0x100; spec = true; passed = true });
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = 2; imm = 1; spec = false });
      T.close (T.root v) (T.Next 1);
      v)
    ~setup:(fun st _ -> st.m.gpr.(2) <- 41)
    ~post:(fun o st ->
      Alcotest.(check bool) "completes" true (match o with ODone _ -> true | _ -> false);
      Alcotest.(check int) "written" 42 st.m.gpr.(1))

(* ------------------------------------------------------------------ *)
(* qcheck differential: random straight-line VLIWs                     *)

(* GPR-space sources: architected, pool or the zero register *)
let gen_src =
  QCheck.Gen.(frequency [ (4, int_range 0 31); (3, int_range 32 63); (1, return Op.zero) ])

let gen_dst = QCheck.Gen.(frequency [ (3, int_range 0 31); (2, int_range 32 63) ])

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (frequency
         [ (4,
            map4
              (fun rt ra imm spec -> Op.BinI { op = IAdd; rt; ra; imm; spec })
              gen_dst gen_src (int_range (-100) 100) bool);
           (2,
            (fun op rt ra rb spec -> Op.Bin { op; rt; ra; rb; ca = Op.ca_loc; spec })
            <$> oneofl [ Ppc.Insn.Add; Subf ] <*> gen_dst <*> gen_src <*> gen_src
            <*> bool);
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
           (* any base: pool values are in bounds, most architected
              ones are not *)
           (2,
            map4
              (fun rt base off spec ->
                Op.LoadOp { w = Word; alg = false; rt = 32 + rt; base;
                            off = OImm (off * 4); spec; passed = false })
              (int_range 0 31) gen_src (int_range 0 16) bool);
           (2,
            map4
              (fun rt base r spec ->
                Op.LoadOp { w = Word; alg = false; rt = 32 + rt; base; off = OReg r;
                            spec; passed = false })
              (int_range 0 31) gen_src gen_src bool);
           (2,
            map2
              (fun rs off ->
                Op.StoreOp { w = Word; rs; base = Op.zero; off = OImm (off * 4) })
              (int_range 0 31) (int_range 0 100));
           (1,
            map2
              (fun crt ra -> Op.CmpIOp { signed = true; crt; ra; imm = 0; spec = false })
              (int_range 0 7) (int_range 0 31));
           (2,
            map4
              (fun crt ra signed spec -> Op.CmpIOp { signed; crt; ra; imm = 100; spec })
              (int_range 8 15) gen_src bool bool);
           (2,
            map2 (fun arch src -> Op.CommitG { arch; src }) (int_range 0 31)
              (int_range 32 63)) ]))

(* A random subset of the pool GPRs (0..31) and CR fields (0..7) to tag *)
let gen_tags =
  QCheck.Gen.(
    let tag =
      oneof
        [ return Vstate.Tmmio;
          map (fun a -> Vstate.Tfault (0x10_0000 + (a * 4))) (int_range 0 100) ]
    in
    pair
      (list_size (int_range 0 12) (pair (int_range 0 31) tag))
      (list_size (int_range 0 3) (pair (int_range 0 7) tag)))

let print_tags (gprs, crs) =
  let one base (i, t) =
    Printf.sprintf "%d:%s" (base + i)
      (match t with
      | Vstate.Clean -> "clean"
      | Tmmio -> "mmio"
      | Tfault a -> Printf.sprintf "fault %x" a)
  in
  String.concat " " (List.map (one 32) gprs @ List.map (one 8) crs)

let prop_differential =
  QCheck.Test.make ~name:"random VLIW: staged = interpretive" ~count:500
    (QCheck.make (QCheck.Gen.pair gen_ops gen_tags)
       ~print:(fun (ops, tags) ->
         String.concat "; " (List.map Op.to_string ops) ^ " | tags " ^ print_tags tags))
    (fun (ops, (gpr_tags, cr_tags)) ->
      let build () =
        let v = mk () in
        List.iter (add (T.root v)) ops;
        T.close (T.root v) (T.Next 1);
        v
      in
      let fresh () =
        let st = Vstate.create (Ppc.Machine.create ()) in
        let mem = Ppc.Mem.create 0x2000 in
        for r = 0 to 31 do
          st.m.gpr.(r) <- r * 12345;
          st.hi.(r) <- r * 64
        done;
        for f = 0 to 7 do
          st.crhi.(f) <- f
        done;
        List.iter (fun (i, t) -> Vstate.set_tag st (32 + i) t) gpr_tags;
        List.iter (fun (i, t) -> Vstate.set_cr_tag st (8 + i) t) cr_tags;
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
        && ist.hi = cst.hi && ist.tags = cst.tags && ist.ext = cst.ext
        && ist.crhi = cst.crhi && ist.crtags = cst.crtags
        && Bytes.equal imem.bytes cmem.bytes
      in
      if not ok then begin
        (* counterexample detail beyond the shrunk op list *)
        Printf.eprintf "diverged: %s vs %s\n" (outcome_str oi) (outcome_str oc);
        Printf.eprintf "machine_eq %b hi %b tags %b crhi %b crtags %b mem %b\n"
          (Ppc.Machine.equal ist.m cst.m) (ist.hi = cst.hi) (ist.tags = cst.tags)
          (ist.crhi = cst.crhi) (ist.crtags = cst.crtags)
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
  T.close (T.root v0) (T.Next 1);
  let v1 = T.create ~id:1 ~precise_entry:0x1004 in
  T.close (T.root v1) (T.Next 99);
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
  T.close (T.root v) (T.OnPage 0x40);
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

(* Trees stage on their first selection.  Tree 0 falls through to
   tree 1, tree 2 is unreachable: staging the page compiles nothing,
   executing tree 0 compiles only tree 0 and links its [Next] to tree
   1's record while that record is still unstaged, and tree 2 is never
   compiled.  Each outcome is still [Exec.run]'s. *)
let test_stage_on_first_selection () =
  let build () =
    seq := 0;
    let v0 = T.create ~id:0 ~precise_entry:0x1000 in
    add (T.root v0) (Op.BinI { op = IAdd; rt = 3; ra = Op.zero; imm = 7; spec = false });
    T.close (T.root v0) (T.Next 1);
    let v1 = T.create ~id:1 ~precise_entry:0x1004 in
    add (T.root v1) (Op.BinI { op = IAdd; rt = 4; ra = 3; imm = 1; spec = false });
    T.close (T.root v1) (T.OffPage 0x2000);
    let v2 = T.create ~id:2 ~precise_entry:0x1008 in
    add (T.root v2) (Op.BinI { op = IAdd; rt = 5; ra = 4; imm = 1; spec = false });
    T.close (T.root v2) (T.OffPage 0x3000);
    [| v0; v1; v2 |]
  in
  let fresh () = (Vstate.create (Ppc.Machine.create ()), Ppc.Mem.create 0x2000) in
  let ist, imem = fresh () and cst, cmem = fresh () in
  let itrees = build () in
  let cp = C.stage ~st:cst ~mem:cmem ~scratch:(C.create_scratch ()) (build ()) in
  let staged () = List.init 3 (fun i -> (C.get cp i).C.staged) in
  Alcotest.(check (list bool)) "nothing staged" [ false; false; false ] (staged ());
  let leaf0 = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  Alcotest.check outcome_t "tree 0: outcome"
    (run_interp ist imem itrees.(0))
    (ODone
       (exit_of_cexit leaf0.C.exit, leaf0.C.nops, by_seq (C.accesses cp.C.scratch)));
  Alcotest.(check (list bool)) "only tree 0 staged" [ true; false; false ] (staged ());
  (match leaf0.C.exit with
  | C.Cnext cv ->
    Alcotest.(check bool) "linked to tree 1's record" true (cv == C.get cp 1);
    Alcotest.(check bool) "tree 1 still unstaged" false cv.C.staged
  | _ -> Alcotest.fail "expected a direct-linked Next");
  Alcotest.check outcome_t "tree 1: outcome"
    (run_interp ist imem itrees.(1))
    (run_compiled cp (C.get cp 1));
  Alcotest.(check (list bool)) "tree 2 never staged" [ true; true; false ] (staged ());
  Alcotest.(check int) "trees compiled" 2 cp.C.n_staged;
  Alcotest.(check bool) "same final state" true
    (Ppc.Machine.equal ist.m cst.m && ist.hi = cst.hi)

(* A tree that fails to stage raises [Stage_error] with the cause, never
   the [Exec.Error] that [exec_vliw] makes of run-time escapes, writes
   nothing and stays unstaged, so a later selection stages it afresh.
   A raising budget reader stands in for an exception escaping the
   compile. *)
exception Boom

let test_stage_failure () =
  let st = Vstate.create (Ppc.Machine.create ()) in
  let mem = Ppc.Mem.create 0x1000 in
  let v = mk () in
  add (T.root v) (Op.BinI { op = IAdd; rt = 3; ra = Op.zero; imm = 7; spec = false });
  T.close (T.root v) (T.OffPage 0x2000);
  let budget = ref (fun () -> raise Boom) in
  let cp =
    C.stage ~budget:(fun () -> !budget ()) ~st ~mem ~scratch:(C.create_scratch ())
      [| v |]
  in
  let select () = C.exec_vliw cp (C.get cp 0) ~alias_check:(fun _ -> true) in
  (match select () with
  | exception C.Stage_error Boom -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "staged despite the failure");
  budget := (fun () -> Some (-1.));
  (match select () with
  | exception C.Stage_error (C.Budget_exceeded _) -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "staged over budget");
  Alcotest.(check bool) "still unstaged" false (C.get cp 0).C.staged;
  Alcotest.(check int) "nothing written" 0 st.m.gpr.(3);
  budget := (fun () -> None);
  ignore (select ());
  Alcotest.(check bool) "staged on retry" true (C.get cp 0).C.staged;
  Alcotest.(check int) "then executed" 7 st.m.gpr.(3)

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
          Alcotest.test_case "tag propagates" `Quick test_tag_propagates;
          Alcotest.test_case "tagged commit" `Quick test_tagged_commit;
          Alcotest.test_case "store-free skips alias" `Quick
            test_store_free_skips_alias;
          QCheck_alcotest.to_alcotest prop_differential ] );
      ( "linking",
        [ Alcotest.test_case "Next direct-linked" `Quick test_direct_link_patched;
          Alcotest.test_case "OnPage memoized" `Quick test_onpage_memo;
          Alcotest.test_case "staged on first selection" `Quick
            test_stage_on_first_selection;
          Alcotest.test_case "staging failure" `Quick test_stage_failure ] );
      ( "programs",
        [ Alcotest.test_case "fuzz corpus, clean" `Slow test_fuzz_clean;
          Alcotest.test_case "fuzz corpus, cocktail" `Slow test_fuzz_cocktail ] )
    ]
