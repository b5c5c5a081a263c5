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

(* A rolled-back or faulting VLIW leaves architected state and memory
   untouched, but an in-place tree may leave pool writes behind: the
   pool is dead there, and the monitor clears it before anything runs
   again.  Pool state is compared after that clear. *)
let recover (o : outcome) (st : Vstate.t) =
  match o with ORoll _ | OError _ -> Vstate.clear_nonarch st | ODone _ -> ()

let pool_clean (st : Vstate.t) =
  Array.for_all (( = ) 0) st.hi
  && Array.for_all not st.ext
  && Array.for_all (( = ) 0) st.tags
  && Array.for_all (( = ) 0) st.crhi
  && Array.for_all (( = ) 0) st.crtags

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
  recover oi ist;
  recover oc cst;
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

(* A destination outside every class, late in a VLIW: both engines
   refuse it when its op evaluates, so neither the architected write
   nor the store before it lands. *)
let test_refused_after_writes () =
  check_equiv "refused destination after writes"
    (fun () ->
      let v = mk () in
      add (T.root v) (Op.BinI { op = IAdd; rt = 1; ra = Op.zero; imm = 5; spec = false });
      add (T.root v) (Op.StoreOp { w = Word; rs = 2; base = Op.zero; off = OImm 0x100 });
      add (T.root v) (Op.CommitG { arch = 70; src = 2 });
      T.close (T.root v) (T.Next 1);
      v)
    ~setup:(fun st _ -> st.m.gpr.(2) <- 9)
    ~post:(fun o st ->
      Alcotest.check outcome_t "refused" (OError "Invalid_argument: Vstate.set_gpr") o;
      Alcotest.(check int) "r1 unwritten" 0 st.m.gpr.(1))

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
      Alcotest.(check int) "r3 untouched" 0 st.m.gpr.(3);
      Alcotest.(check bool) "pool clean after the clear" true (pool_clean st))

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

(* The translator's read-after-write shape (seen in seed-1 fuzz trees):
   [r4=r38; s.ori r38,r0,0; cmplwi cr14,r38,59940].  The commit and the
   compare must both see r38's entry value, so the tree may not write
   r38 in place before the compare reads it: the check rejects it, and
   it stages buffered. *)
let test_pool_raw () =
  let build () =
    let v = mk () in
    add (T.root v) (Op.CommitG { arch = 4; src = 38 });
    add (T.root v) (Op.BinI { op = IOr; rt = 38; ra = 0; imm = 0; spec = true });
    add (T.root v)
      (Op.CmpIOp { signed = false; crt = 14; ra = 38; imm = 59940; spec = true });
    T.close (T.root v) (T.Next 1);
    v
  in
  Alcotest.(check bool) "rejected by the check" false (C.pool_in_place (build ()));
  check_equiv "pool read after write" build
    ~setup:(fun st _ -> Vstate.set_gpr st 38 100_000)
    ~post:(fun o st ->
      Alcotest.(check bool) "completes" true (match o with ODone _ -> true | _ -> false);
      Alcotest.(check int) "commit saw the entry value" 100_000 st.m.gpr.(4);
      Alcotest.(check int) "compare saw the entry value (gt)" 4 st.crhi.(6);
      Alcotest.(check int) "r38 written" 0 st.hi.(6))

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
      recover oi ist;
      recover oc cst;
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
(* Op-shape conformance: every [Op.t] constructor in each staged form  *)

(* Where a GPR-space operand comes from.  [Arch], [Pool] and [Zero] have
   the array form the hot shapes read; [Tagged] is a pool register
   carrying an exception tag; [Spr] (LR for the first operand, CTR for
   the second) has none, so the op stages through the closure fallback. *)
type src = Arch | Pool | Tagged | Zero | Spr

(* Operand [k] (0 or 1) of each kind.  [table_setup] gives r3/r35/r37/LR
   the first value and r4/r36/r38/CTR the second, and tags r37 and r38. *)
let src_loc k = function
  | Arch -> 3 + k
  | Pool -> 35 + k
  | Tagged -> 37 + k
  | Zero -> Op.zero
  | Spr -> if k = 0 then Op.lr_loc else Op.ctr_loc

let srcs1 = [ Arch; Pool; Tagged; Zero; Spr ]

let srcs2 =
  [ (Arch, Arch); (Arch, Pool); (Pool, Arch); (Pool, Pool); (Tagged, Arch);
    (Arch, Tagged); (Zero, Pool); (Pool, Zero); (Spr, Arch); (Arch, Spr) ]

(* condition-field sources: architected cr1, pool cr9, tagged pool cr10 *)
let cr_srcs = [ 1; 9; 10 ]

(* architected and pool destinations *)
let gpr_dsts = [ 6; 40 ]
let cr_dsts = [ 2; 12 ]
let specs = [ false; true ]
let operand_values = [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ]

let table_setup a b (st : Vstate.t) (mem : Ppc.Mem.t) =
  let m = st.m in
  m.gpr.(3) <- a;
  m.gpr.(4) <- b;
  st.hi.(3) <- a;
  st.hi.(4) <- b;
  st.hi.(5) <- a;
  st.hi.(6) <- b;
  Vstate.set_tag st 37 (Vstate.Tfault 0x10_0000);
  Vstate.set_tag st 38 Vstate.Tmmio;
  m.lr <- a;
  m.ctr <- b;
  m.xer_ca <- a land 1 = 1;
  m.xer_so <- b land 1 = 1;
  st.ext.(3) <- b land 1 = 1;
  st.ext.(5) <- true;
  m.cr <- a lxor (b lsr 3);
  st.crhi.(1) <- a land 0xF;
  st.crhi.(2) <- b land 0xF;
  Vstate.set_cr_tag st 10 Vstate.Tmmio;
  m.srr0 <- a;
  m.srr1 <- b;
  m.dar <- a lxor b;
  m.dsisr <- 0x4200_0000;
  m.sprg0 <- a + 1;
  m.sprg1 <- b + 2;
  m.msr <- a land 0xFFFF;
  for i = 0 to 7 do
    Ppc.Mem.store32 mem (4 * i) ((0x8765_4321 * (i + 1)) land 0xFFFF_FFFF)
  done

(* Every case: a label, the op, and whether it reads a second value. *)
let table_cases () =
  let cases = ref [] in
  let case ?(two = false) op = cases := (Op.to_string op, op, two) :: !cases in
  let all l f = List.iter f l in
  let s0 = src_loc 0 and s1 = src_loc 1 in
  let xo =
    Ppc.Insn.[ Add; Addc; Adde; Subf; Subfc; Mullw; Mulhw; Mulhwu; Divw; Divwu; Neg ]
  in
  all xo (fun op ->
      all srcs2 (fun (a, b) ->
          all specs (fun spec ->
              all gpr_dsts (fun rt ->
                  all (if op = Adde then [ Op.ca_loc; 35; 37 ] else [ Op.ca_loc ])
                    (fun ca ->
                      case ~two:true
                        (Op.Bin { op; rt; ra = s0 a; rb = s1 b; ca; spec }))))));
  all Op.[ IAdd; IAddc; IMul; IAnd; IOr; IXor ] (fun op ->
      all srcs1 (fun a ->
          all [ 0; 1; -1; 0x7FFF; 0xFFFF_0000 ] (fun imm ->
              all specs (fun spec ->
                  all gpr_dsts (fun rt ->
                      case (Op.BinI { op; rt; ra = s0 a; imm; spec }))))));
  let xs = Ppc.Insn.[ And_; Or_; Xor_; Nand; Nor; Andc; Eqv; Slw; Srw; Sraw ] in
  all xs (fun op ->
      all srcs2 (fun (a, b) ->
          all specs (fun spec ->
              all gpr_dsts (fun rt ->
                  case ~two:true (Op.Logic { op; rt; ra = s0 a; rb = s1 b; spec })))));
  all srcs1 (fun a ->
      all specs (fun spec ->
          all gpr_dsts (fun rt ->
              let ra = s0 a in
              all Ppc.Insn.[ Cntlzw; Extsb; Extsh ] (fun op ->
                  case (Op.Un { op; rt; ra; spec }));
              all [ 0; 1; 31 ] (fun sh -> case (Op.SrawiOp { rt; ra; sh; spec }));
              all [ (0, 0, 31); (1, 0, 30); (31, 16, 8) ] (fun (sh, mb, me) ->
                  case (Op.RlwinmOp { rt; ra; sh; mb; me; spec }))));
      all specs (fun spec ->
          all cr_dsts (fun crt ->
              all [ true; false ] (fun signed ->
                  all [ 0; 1; -1; 0x7FFF ] (fun imm ->
                      case (Op.CmpIOp { signed; crt; ra = s0 a; imm; spec }))))));
  all srcs2 (fun (a, b) ->
      all specs (fun spec ->
          all cr_dsts (fun crt ->
              all [ true; false ] (fun signed ->
                  case ~two:true
                    (Op.CmpOp { signed; crt; ra = s0 a; rb = s1 b; spec })))));
  let offs =
    Op.[ OImm 4; OImm Ppc.Mem.mmio_seq; OReg 4; OReg 36; OReg 38; OReg Op.ctr_loc ]
  in
  (* a speculative load tags its destination, which must be a pool
     register: the tag of an architected one does not exist *)
  all Ppc.Insn.[ (Byte, false); (Half, false); (Half, true); (Word, false) ]
    (fun (w, alg) ->
      all srcs1 (fun base ->
          all offs (fun off ->
              all [ (false, 6); (false, 40); (true, 40) ] (fun (spec, rt) ->
                  case ~two:true
                    (Op.LoadOp { w; alg; rt; base = s0 base; off; spec;
                                 passed = spec })))));
  all Ppc.Insn.[ Byte; Half; Word ] (fun w ->
      all srcs1 (fun rs ->
          all srcs1 (fun base ->
              all Op.[ OImm 8; OReg 4 ] (fun off ->
                  case ~two:true (Op.StoreOp { w; rs = s0 rs; base = s1 base; off })))));
  all Ppc.Insn.[ Crand; Cror; Crxor; Crnand; Crnor; Crandc; Creqv; Crorc ] (fun op ->
      all cr_srcs (fun fa ->
          all [ 1; 9 ] (fun fb ->
              all specs (fun spec ->
                  all cr_dsts (fun fld ->
                      all [ Op.zero; fld ] (fun old ->
                          case ~two:true
                            (Op.CropOp { op; bt = (4 * fld) + 1; ba = (4 * fa) + 2;
                                         bb = (4 * fb) + 3; old; spec })))))));
  all cr_srcs (fun src ->
      all cr_dsts (fun dst ->
          all specs (fun spec -> case (Op.McrfOp { dst; src; spec }));
          case (Op.CommitCr { arch = dst; src })));
  all gpr_dsts (fun rt ->
      all
        [ Array.init 8 Fun.id; [| 0; 9; 2; 3; 4; 5; 6; 7 |];
          [| 0; 1; 10; 3; 4; 5; 6; 7 |]; Array.init 7 Fun.id ]
        (fun srcs -> case ~two:true (Op.MfcrOp { rt; srcs }));
      case (Op.GetXer { rt });
      case (Op.GetMsr { rt });
      all Op.[ Xer; Srr0; Srr1; Dar; Dsisr; Sprg0; Sprg1; Msr ] (fun spr ->
          case ~two:true (Op.GetSpr { rt; spr })));
  all srcs1 (fun rs ->
      let rs = s0 rs in
      all cr_dsts (fun crt ->
          all [ 0; 7 ] (fun pos -> case (Op.CrSetOp { crt; rs; pos })));
      case (Op.SetXer { rs });
      case (Op.SetMsr { rs });
      all Op.[ Xer; Srr0; Srr1; Dar; Dsisr; Sprg0; Sprg1; Msr ] (fun spr ->
          case (Op.SetSpr { spr; rs }));
      all gpr_dsts (fun arch -> case (Op.CommitG { arch; src = rs }));
      case (Op.CommitLr { src = rs });
      case (Op.CommitCtr { src = rs }));
  all [ Op.ca_loc; 35; 37 ] (fun src -> case (Op.CommitCa { src }));
  List.rev !cases

(* Destinations outside every class, which both engines refuse with
   an [Exec.Error] before any write of the VLIW applies: a speculative
   load into an architected register, refused on its I/O-space and
   fault outcomes (the only ones that would tag it), and raw locations
   outside every class (r70, the zero register, cr20, cr-1) in every
   op shape that writes one, hot and closure forms alike.  Tagged sources still
   roll back first, as the operand reads come before the write. *)
let refused_cases () =
  let cases = ref [] in
  let case ?(two = false) op = cases := (Op.to_string op, op, two) :: !cases in
  let all l f = List.iter f l in
  let s0 = src_loc 0 and s1 = src_loc 1 in
  let offs =
    Op.[ OImm 4; OImm Ppc.Mem.mmio_seq; OReg 4; OReg 36; OReg 38; OReg Op.ctr_loc ]
  in
  all Ppc.Insn.[ (Byte, false); (Half, true); (Word, false) ] (fun (w, alg) ->
      all srcs1 (fun base ->
          all offs (fun off ->
              all [ (true, 6); (false, 70); (true, 70) ] (fun (spec, rt) ->
                  case ~two:true
                    (Op.LoadOp { w; alg; rt; base = s0 base; off; spec;
                                 passed = spec })))));
  all specs (fun spec ->
      all srcs1 (fun a ->
          let ra = s0 a in
          all [ 70; Op.zero ] (fun rt ->
              case (Op.BinI { op = IAdd; rt; ra; imm = 1; spec }));
          case (Op.BinI { op = IAddc; rt = 70; ra; imm = -1; spec });
          case (Op.Un { op = Cntlzw; rt = 70; ra; spec });
          case (Op.SrawiOp { rt = 70; ra; sh = 1; spec });
          case (Op.RlwinmOp { rt = 70; ra; sh = 1; mb = 0; me = 31; spec });
          all [ 20; -1 ] (fun crt ->
              case (Op.CmpIOp { signed = true; crt; ra; imm = 1; spec })));
      all srcs2 (fun (a, b) ->
          let ra = s0 a and rb = s1 b in
          all Ppc.Insn.[ Add; Subf; Addc ] (fun op ->
              case ~two:true (Op.Bin { op; rt = 70; ra; rb; ca = Op.ca_loc; spec }));
          case ~two:true (Op.Logic { op = And_; rt = 70; ra; rb; spec });
          all [ 20; -1 ] (fun crt ->
              case ~two:true (Op.CmpOp { signed = false; crt; ra; rb; spec })));
      all cr_srcs (fun src ->
          all [ 20; -1 ] (fun dst -> case (Op.McrfOp { dst; src; spec }));
          case ~two:true
            (Op.CropOp { op = Cror; bt = (4 * 20) + 1; ba = 4 * src; bb = 6;
                         old = Op.zero; spec })));
  all srcs1 (fun rs ->
      let rs = s0 rs in
      case (Op.CommitG { arch = 70; src = rs });
      all [ 20; -1 ] (fun crt -> case (Op.CrSetOp { crt; rs; pos = 7 })));
  all cr_srcs (fun src ->
      all [ 20; -1 ] (fun arch -> case (Op.CommitCr { arch; src })));
  case ~two:true (Op.MfcrOp { rt = 70; srcs = Array.init 8 Fun.id });
  case (Op.GetXer { rt = 70 });
  case (Op.GetMsr { rt = 70 });
  case ~two:true (Op.GetSpr { rt = 70; spr = Srr0 });
  List.rev !cases

(* Each case against [Exec.run], for every operand value (every pair
   when the op reads two), in both write forms: alone on its tree, which
   stages in place, and followed by a pool read after a write (r63,
   which no case touches), which stages the whole tree buffered.
   [post] gets each run's setup, then [check_equiv]'s arguments.
   Returns the number of runs. *)
let run_table ?(post = fun _ (_ : outcome) (_ : Vstate.t) -> ()) cases =
  let n = ref 0 in
  List.iter
    (fun (label, op, two) ->
      let build ~in_place () =
        let v = mk () in
        add (T.root v) op;
        if not in_place then begin
          add (T.root v)
            (Op.BinI { op = IAdd; rt = 63; ra = Op.zero; imm = 9; spec = false });
          add (T.root v)
            (Op.BinI { op = IAdd; rt = 62; ra = 63; imm = 1; spec = false })
        end;
        T.close (T.root v) (T.Next 1);
        v
      in
      List.iter
        (fun in_place ->
          Alcotest.(check bool) (label ^ ": write form") in_place
            (C.pool_in_place (build ~in_place ()));
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  incr n;
                  let setup = table_setup a b in
                  check_equiv ~setup ~post:(post setup)
                    (Printf.sprintf "%s [%x %x]%s" label a b
                       (if in_place then "" else " buffered"))
                    (build ~in_place))
                (if two then operand_values else [ a lxor 0x5A5A ]))
            operand_values)
        [ true; false ])
    cases;
  !n

let test_conformance () =
  Alcotest.(check int) "cases run" 106_450 (run_table (table_cases ()))

(* The refused rows: both engines agree (outcome and every piece of
   state, as above), and a refusal leaves the architected state as the
   setup made it. *)
let test_conformance_refused () =
  let errors = ref 0 and rolls = ref 0 and dones = ref 0 in
  let post setup o (st : Vstate.t) =
    match o with
    | OError _ ->
      incr errors;
      let fresh = Vstate.create (Ppc.Machine.create ()) in
      setup fresh (Ppc.Mem.create 0x2000);
      Alcotest.(check bool) "refusal leaves architected state" true
        (Ppc.Machine.equal fresh.m st.m)
    | ORoll _ -> incr rolls
    | ODone _ -> incr dones
  in
  Alcotest.(check int) "cases run" 21_050 (run_table ~post (refused_cases ()));
  (* the rest roll back on a tagged source or, for a speculative load
     into r6 at an ordinary address, complete *)
  Alcotest.(check int) "refused" 15_726 !errors;
  Alcotest.(check int) "rolled back" 3_902 !rolls;
  Alcotest.(check int) "completed" 1_422 !dones

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
(* The in-place licence on real translations                           *)

(* P4: on every path from an entry tree of [p], following [Next] exits,
   each pool location is written before it is read.  An op and a branch
   test read the state at their VLIW's entry; an [Indirect] exit reads
   it after the VLIW's writes.  Returns the reads of a location no
   earlier VLIW of the path wrote.  Paths are memoized on (tree, written
   set), so the walk is linear in the states reached.  An extender bit
   counts as its register, as in [Op.pool_reads]. *)
let p4_violations (p : Translator.Translate.xpage) =
  let module Vec = Translator.Vec in
  let seen = Hashtbl.create 64 and bad = ref 0 in
  let n = Vec.length p.vliws in
  let rec tree id written =
    if id >= 0 && id < n && not (Hashtbl.mem seen (id, written)) then begin
      Hashtbl.add seen (id, written) ();
      node written written (T.root (Vec.get p.vliws id))
    end
  and node entry acc (nd : T.node) =
    let acc =
      List.fold_left
        (fun acc (_, op) ->
          if Op.pool_reads op land lnot entry <> 0 then incr bad;
          acc lor Op.pool_writes op)
        acc nd.ops
    in
    match nd.kind with
    | T.Open | Exit (OnPage _ | OffPage _ | Trap _) -> ()
    | Exit (Next id) -> tree id acc
    | Exit (Indirect (l, _)) -> if Op.gpr_bit l land lnot acc <> 0 then incr bad
    | Branch { test; taken; fall } ->
      if Op.cr_bit (test.bit / 4) land lnot entry <> 0 then incr bad;
      node entry acc taken;
      node entry acc fall
  in
  Hashtbl.iter (fun _ id -> tree id 0) p.entries;
  !bad

(* Every page image a run installs, each once: [add] sees every
   translation and extension, and the tier-2 region images live at the
   end of the run. *)
let run_pages ?(tier2 = false) (w : Workloads.Wl.t) =
  let pages = ref [] in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  vmm.install_hook <-
    Some (fun p -> if not (List.memq p !pages) then pages := p :: !pages);
  if tier2 then ignore (Obs.Tier.attach vmm);
  ignore (Vmm.Monitor.run vmm ~entry ~fuel:(2 * w.fuel));
  Hashtbl.iter
    (fun _ (r : Vmm.Monitor.region) ->
      Hashtbl.iter (fun _ p -> pages := p :: !pages) r.r_tr.pages)
    vmm.regions;
  !pages

let trees_of pages =
  List.concat_map
    (fun (p : Translator.Translate.xpage) ->
      Translator.Vec.fold (fun acc t -> t :: acc) [] p.vliws)
    pages

let test_licence_registry () =
  let pages =
    List.concat_map (fun w -> run_pages w) Workloads.Registry.all
    @ List.concat_map
        (fun name -> run_pages ~tier2:true (Workloads.Registry.by_name name))
        [ "c_sieve"; "compress" ]
  in
  Alcotest.(check int) "P4 violations" 0
    (List.fold_left (fun n p -> n + p4_violations p) 0 pages);
  List.iter
    (fun (t : T.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "tree %d at %x passes the in-place check" t.id t.precise_entry)
        true (C.pool_in_place t))
    (trees_of pages)

(* The pages of seed 1's first 256 fuzz programs, the generator
   bench/perf's code workloads draw from.  P4 holds on every page; a
   few trees read a pool register their path wrote, so the translator
   does reach the buffered form. *)
let test_licence_fuzz () =
  let pages =
    List.concat_map
      (fun index ->
        let rng = Random.State.make [| 1; index; 0 |] in
        let slots = Fault.Fuzz.gen_slots rng ~insns:96 ~allow_raw:true in
        run_pages (Fault.Fuzz.wl_of ~seed:1 ~index ~fuel:20_000 slots))
      (List.init 256 Fun.id)
  in
  Alcotest.(check int) "P4 violations" 0
    (List.fold_left (fun n p -> n + p4_violations p) 0 pages);
  let trees = trees_of pages in
  let fresh = List.length (List.filter C.pool_in_place trees) in
  Printf.printf "in place: %d of %d trees on %d pages\n" fresh (List.length trees)
    (List.length pages);
  Alcotest.(check bool) "most trees in place" true (fresh * 100 > 99 * List.length trees);
  Alcotest.(check bool) "some buffered" true (fresh < List.length trees)

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
          Alcotest.test_case "refused destination after writes" `Quick
            test_refused_after_writes;
          Alcotest.test_case "carry chain" `Quick test_carry_chain;
          Alcotest.test_case "tag propagates" `Quick test_tag_propagates;
          Alcotest.test_case "tagged commit" `Quick test_tagged_commit;
          Alcotest.test_case "store-free skips alias" `Quick
            test_store_free_skips_alias;
          Alcotest.test_case "pool read after write" `Quick test_pool_raw;
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "op-shape conformance" `Quick test_conformance;
          Alcotest.test_case "op-shape conformance, refused destinations" `Quick
            test_conformance_refused ] );
      ( "linking",
        [ Alcotest.test_case "Next direct-linked" `Quick test_direct_link_patched;
          Alcotest.test_case "OnPage memoized" `Quick test_onpage_memo;
          Alcotest.test_case "staged on first selection" `Quick
            test_stage_on_first_selection;
          Alcotest.test_case "staging failure" `Quick test_stage_failure ] );
      ( "licence",
        [ Alcotest.test_case "registry: P4 and in-place check" `Quick
            test_licence_registry;
          Alcotest.test_case "fuzz corpus: P4" `Quick test_licence_fuzz ] );
      ( "programs",
        [ Alcotest.test_case "fuzz corpus, clean" `Slow test_fuzz_clean;
          Alcotest.test_case "fuzz corpus, cocktail" `Slow test_fuzz_cocktail ] )
    ]
