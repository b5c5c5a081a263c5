(* Decomposition of base-architecture instructions into RISC primitives
   with symbolic operands, plus a description of their control flow.

   The scheduler resolves symbolic operands against its per-path
   renaming maps: [Gpr]/[Lr]/[Ctr]/[Crf] name architected resources,
   [TmpG]/[TmpC] name instruction-local temporaries that exist only so
   CISC-ish decompositions (CTR-decrementing branches, for instance)
   have somewhere to put intermediate values.  Temporaries are always
   allocated from the non-architected pools and never committed —
   which is how the paper breaks the serialization of decrement-and-
   branch loops (Appendix D). *)

open Ppc

type operand = Gpr of int | Lr | Ctr | Zero | TmpG of int
type crf_operand = Crf of int | TmpC of int

(** A condition-register bit: field and bit index (0=LT .. 3=SO). *)
type crbit = crf_operand * int

type prim =
  | PBin of { op : Insn.xo_op; dst : operand; a : operand; b : operand }
  | PBinI of { op : Vliw.Op.ibin; dst : operand; a : operand; imm : int }
  | PLogic of { op : Insn.x_op; dst : operand; a : operand; b : operand }
  | PUn of { op : Insn.x1_op; dst : operand; a : operand }
  | PSrawi of { dst : operand; a : operand; sh : int }
  | PRlwinm of { dst : operand; a : operand; sh : int; mb : int; me : int }
  | PCmp of { signed : bool; dst : crf_operand; a : operand; b : operand }
  | PCmpI of { signed : bool; dst : crf_operand; a : operand; imm : int }
  | PLoad of { w : Insn.width; alg : bool; dst : operand; base : operand;
               off : offop }
  | PStore of { w : Insn.width; src : operand; base : operand; off : offop }
  | PCrop of { op : Insn.cr_op; t : crbit; a : crbit; b : crbit }
  | PMcrf of { dst : crf_operand; src : crf_operand }
  | PMfcr of { dst : operand }
  | PCrSet of { field : int; src : operand }  (** mtcrf, one field *)
  | PGetXer of { dst : operand }
  | PSetXer of { src : operand }
  | PGetSpr of { dst : operand; spr : Vliw.Op.slow_spr }
  | PSetSpr of { spr : Vliw.Op.slow_spr; src : operand }
  | PGetMsr of { dst : operand }
  | PSetMsr of { src : operand }

and offop = OffImm of int | OffReg of operand

(** Does this op set the carry bit? *)
let sets_ca = function
  | PBin { op = Addc | Adde | Subfc; _ } -> true
  | PBinI { op = IAddc; _ } -> true
  | PLogic { op = Sraw; _ } -> true
  | PSrawi _ -> true
  | _ -> false

let reads_ca = function PBin { op = Adde; _ } -> true | _ -> false

(** Branch target kinds.  [ViaReg r] is a register-indirect branch
    through GPR [r] (S/390-style; PowerPC uses LR/CTR). *)
type target = Direct of int | ViaLr | ViaCtr | ViaReg of int

type control =
  | Fallthru
  | Jump of target
  | CondJump of { test : crbit; sense : bool; target : target; hint : bool;
                  late_commit : operand option }
      (** take [target] if CR bit [test] = [sense]; [hint] = predicted
          taken by the static y-bit; [late_commit]: the branch
          decremented the named architected register into TmpG
          [ctr_tmp] and the scheduler must commit it in the branch's own
          VLIW, so the instruction is atomic at precise points *)
  | TrapC of Vliw.Tree.trap

type cracked = { prims : prim list; control : control }

let plain prims = { prims; control = Fallthru }

let reg ra = if ra = 0 then Zero else Gpr ra

let record rt = PCmpI { signed = true; dst = Crf 0; a = rt; imm = 0 }

let with_rc rc rt prims = if rc then prims @ [ record rt ] else prims

(* Decompose a BO field into condition-computing primitives and a final
   test, per the PowerPC semantics implemented by {!Ppc.Interp.bc_taken}.
   Temporaries TmpC 0/1 are used for the CTR test and the combination.

   The decremented CTR is computed into temporary TmpG 9 and NOT
   committed here: the scheduler commits it in the same VLIW as the
   branch itself, so that a rollback of the branch VLIW never observes a
   half-executed (already decremented) bdnz. *)
let ctr_tmp = 9

let decompose_bo bo bi =
  let dec = not (Insn.Bo.no_ctr_dec bo) in
  let pre =
    if dec then
      [ PBinI { op = IAdd; dst = TmpG ctr_tmp; a = Ctr; imm = -1 };
        PCmpI { signed = true; dst = TmpC 0; a = TmpG ctr_tmp; imm = 0 } ]
    else []
  in
  let ctr_test = ((TmpC 0, Insn.Crbit.eq), Insn.Bo.ctr_zero_sense bo) in
  let cond_test = ((Crf (bi / 4), bi mod 4), Insn.Bo.cond_sense bo) in
  match (dec, Insn.Bo.ignores_cond bo) with
  | false, true -> (pre, None, dec)  (* branch always *)
  | false, false -> (pre, Some cond_test, dec)
  | true, true -> (pre, Some ctr_test, dec)
  | true, false ->
    (* combined: taken iff (ctr bit = s1) && (cond bit = s2) *)
    let (cb, s1) = ctr_test and (db, s2) = cond_test in
    let op : Insn.cr_op =
      match (s1, s2) with
      | true, true -> Crand
      | true, false -> Crandc
      | false, true -> Crandc
      | false, false -> Crnor
    in
    let a, b = if (not s1) && s2 then (db, cb) else (cb, db) in
    ( pre @ [ PCrop { op; t = (TmpC 1, 0); a; b } ],
      Some ((TmpC 1, 0), true),
      dec )

(* LR update for the LK bit. *)
let link pc = PBinI { op = IAdd; dst = Lr; a = Zero; imm = pc + 4 }

let crack_branch pc bo bi ~target ~lk ~hint_bit =
  let pre, test, dec = decompose_bo bo bi in
  (* A branch-and-link through LR must read the pre-link value: the
     masked target is snapshotted into TmpG 0 before the link. *)
  let pre =
    match (target, lk) with
    | ViaLr, true ->
      pre @ [ PRlwinm { dst = TmpG 0; a = Lr; sh = 0; mb = 0; me = 29 } ]
    | _ -> pre
  in
  let pre = if lk then pre @ [ link pc ] else pre in
  match test with
  | None -> { prims = pre; control = Jump target }
  | Some (test, sense) ->
    { prims = pre;
      control =
        CondJump { test; sense; target; hint = hint_bit;
                   late_commit = (if dec then Some Ctr else None) } }

(** [crack pc insn] decomposes the instruction at address [pc]. *)
let crack pc (i : Insn.t) : cracked =
  match i with
  | Addi (rt, ra, si) -> plain [ PBinI { op = IAdd; dst = Gpr rt; a = reg ra; imm = si } ]
  | Addis (rt, ra, si) ->
    plain [ PBinI { op = IAdd; dst = Gpr rt; a = reg ra; imm = si lsl 16 } ]
  | Addic (rt, ra, si) ->
    plain [ PBinI { op = IAddc; dst = Gpr rt; a = Gpr ra; imm = si } ]
  | Mulli (rt, ra, si) -> plain [ PBinI { op = IMul; dst = Gpr rt; a = Gpr ra; imm = si } ]
  | Cmpi (bf, ra, si) ->
    plain [ PCmpI { signed = true; dst = Crf bf; a = Gpr ra; imm = si } ]
  | Cmpli (bf, ra, ui) ->
    plain [ PCmpI { signed = false; dst = Crf bf; a = Gpr ra; imm = ui } ]
  | Andi (rs, ra, ui) ->
    plain
      [ PBinI { op = IAnd; dst = Gpr ra; a = Gpr rs; imm = ui }; record (Gpr ra) ]
  | Ori (rs, ra, ui) -> plain [ PBinI { op = IOr; dst = Gpr ra; a = Gpr rs; imm = ui } ]
  | Oris (rs, ra, ui) ->
    plain [ PBinI { op = IOr; dst = Gpr ra; a = Gpr rs; imm = ui lsl 16 } ]
  | Xori (rs, ra, ui) -> plain [ PBinI { op = IXor; dst = Gpr ra; a = Gpr rs; imm = ui } ]
  | Xo (op, rt, ra, rb, rc) ->
    let b = if op = Neg then Zero else Gpr rb in
    plain (with_rc rc (Gpr rt) [ PBin { op; dst = Gpr rt; a = Gpr ra; b } ])
  | X (op, ra, rs, rb, rc) ->
    plain (with_rc rc (Gpr ra) [ PLogic { op; dst = Gpr ra; a = Gpr rs; b = Gpr rb } ])
  | X1 (op, ra, rs, rc) ->
    plain (with_rc rc (Gpr ra) [ PUn { op; dst = Gpr ra; a = Gpr rs } ])
  | Srawi (ra, rs, sh, rc) ->
    plain (with_rc rc (Gpr ra) [ PSrawi { dst = Gpr ra; a = Gpr rs; sh } ])
  | Cmp (bf, ra, rb) ->
    plain [ PCmp { signed = true; dst = Crf bf; a = Gpr ra; b = Gpr rb } ]
  | Cmpl (bf, ra, rb) ->
    plain [ PCmp { signed = false; dst = Crf bf; a = Gpr ra; b = Gpr rb } ]
  | Rlwinm (ra, rs, sh, mb, me, rc) ->
    plain (with_rc rc (Gpr ra) [ PRlwinm { dst = Gpr ra; a = Gpr rs; sh; mb; me } ])
  | Load (w, alg, rt, ra, d) ->
    plain [ PLoad { w; alg; dst = Gpr rt; base = reg ra; off = OffImm d } ]
  | Store (w, rs, ra, d) ->
    plain [ PStore { w; src = Gpr rs; base = reg ra; off = OffImm d } ]
  | Loadx (w, alg, rt, ra, rb) ->
    plain [ PLoad { w; alg; dst = Gpr rt; base = reg ra; off = OffReg (Gpr rb) } ]
  | Storex (w, rs, ra, rb) ->
    plain [ PStore { w; src = Gpr rs; base = reg ra; off = OffReg (Gpr rb) } ]
  (* The invalid update and load-multiple forms crack as the
     interpreter executes them: the base is (rA|0), an lwzu with
     rA = rD leaves the address in rA, and an lmw whose range holds rA
     loads rA last, so every load addresses from the original rA (a
     temporary base would need a 33rd renamed register for lmw r0). *)
  | Lwzu (rt, ra, d) when ra = rt && ra <> 0 ->
    (* the load addresses from rA itself, not the temporary: the limit
       scheduler ([Baseline.Oracle]) reads a temporary as 0 *)
    plain
      [ PBinI { op = IAdd; dst = TmpG 0; a = Gpr ra; imm = d };
        PLoad { w = Word; alg = false; dst = Gpr rt; base = Gpr ra; off = OffImm d };
        PBinI { op = IAdd; dst = Gpr ra; a = TmpG 0; imm = 0 } ]
  | Lwzu (rt, ra, d) ->
    plain
      [ PLoad { w = Word; alg = false; dst = Gpr rt; base = reg ra; off = OffImm d };
        PBinI { op = IAdd; dst = Gpr ra; a = reg ra; imm = d } ]
  | Stwu (rs, ra, d) ->
    plain
      [ PStore { w = Word; src = Gpr rs; base = reg ra; off = OffImm d };
        PBinI { op = IAdd; dst = Gpr ra; a = reg ra; imm = d } ]
  | Lmw (rt, ra, d) ->
    let load r =
      PLoad { w = Word; alg = false; dst = Gpr r; base = reg ra;
              off = OffImm (d + (4 * (r - rt))) }
    in
    let last, rest =
      List.partition (fun r -> r = ra && ra <> 0) (List.init (32 - rt) (( + ) rt))
    in
    plain (List.map load (rest @ last))
  | Stmw (rs, ra, d) ->
    plain
      (List.init (32 - rs) (fun k ->
           PStore { w = Word; src = Gpr (rs + k); base = reg ra;
                    off = OffImm (d + (4 * k)) }))
  | B (li, aa, lk) ->
    let target = if aa then li else pc + li in
    { prims = (if lk then [ link pc ] else []);
      control = Jump (Direct (target land 0xFFFF_FFFF)) }
  | Bc (bo, bi, bd, aa, lk) ->
    let target = (if aa then bd else pc + bd) land 0xFFFF_FFFF in
    crack_branch pc bo bi ~target:(Direct target) ~lk ~hint_bit:(Insn.Bo.hint bo)
  | Bclr (bo, bi, lk) -> crack_branch pc bo bi ~target:ViaLr ~lk ~hint_bit:false
  | Bcctr (bo, bi, lk) -> crack_branch pc bo bi ~target:ViaCtr ~lk ~hint_bit:false
  | Crop (op, bt, ba, bb) ->
    plain
      [ PCrop { op; t = (Crf (bt / 4), bt mod 4); a = (Crf (ba / 4), ba mod 4);
                b = (Crf (bb / 4), bb mod 4) } ]
  | Mcrf (bf, bfa) -> plain [ PMcrf { dst = Crf bf; src = Crf bfa } ]
  | Mfcr rt -> plain [ PMfcr { dst = Gpr rt } ]
  | Mtcrf (fxm, rs) ->
    plain
      (List.filter_map
         (fun f -> if fxm land (0x80 lsr f) <> 0 then Some (PCrSet { field = f; src = Gpr rs }) else None)
         (List.init 8 Fun.id))
  | Mfspr (rt, LR) -> plain [ PBinI { op = IAdd; dst = Gpr rt; a = Lr; imm = 0 } ]
  | Mfspr (rt, CTR) -> plain [ PBinI { op = IAdd; dst = Gpr rt; a = Ctr; imm = 0 } ]
  | Mtspr (LR, rs) -> plain [ PBinI { op = IAdd; dst = Lr; a = Gpr rs; imm = 0 } ]
  | Mtspr (CTR, rs) -> plain [ PBinI { op = IAdd; dst = Ctr; a = Gpr rs; imm = 0 } ]
  | Mfspr (rt, XER) -> plain [ PGetXer { dst = Gpr rt } ]
  | Mtspr (XER, rs) -> plain [ PSetXer { src = Gpr rs } ]
  | Mfspr (rt, spr) ->
    let spr : Vliw.Op.slow_spr =
      match spr with
      | SRR0 -> Srr0 | SRR1 -> Srr1 | DAR -> Dar | DSISR -> Dsisr
      | SPRG0 -> Sprg0 | SPRG1 -> Sprg1
      | XER | LR | CTR -> assert false
    in
    plain [ PGetSpr { dst = Gpr rt; spr } ]
  | Mtspr (spr, rs) ->
    let spr : Vliw.Op.slow_spr =
      match spr with
      | SRR0 -> Srr0 | SRR1 -> Srr1 | DAR -> Dar | DSISR -> Dsisr
      | SPRG0 -> Sprg0 | SPRG1 -> Sprg1
      | XER | LR | CTR -> assert false
    in
    plain [ PSetSpr { spr; src = Gpr rs } ]
  | Mfmsr rt -> plain [ PGetMsr { dst = Gpr rt } ]
  | Mtmsr rs -> plain [ PSetMsr { src = Gpr rs } ]
  | Sc -> { prims = []; control = TrapC (Tsc (pc + 4)) }
  | Rfi -> { prims = []; control = TrapC Trfi }
  | Isync -> plain []

(** Shape of a primitive for the scheduler: operands read and written,
    plus scheduling class. *)
type shape = {
  srcs_g : operand list;      (** GPR-space reads (incl. LR/CTR/temps) *)
  srcs_c : crf_operand list;  (** condition-field reads *)
  r_ca : bool;
  r_so : bool;
  dst_g : operand option;
  dst_c : crf_operand option;
  w_ca : bool;
  mem : [ `No | `Load | `Store ];
  serial : bool;              (** reads/writes the slow serialized state *)
}

let base_shape =
  { srcs_g = []; srcs_c = []; r_ca = false; r_so = false; dst_g = None;
    dst_c = None; w_ca = false; mem = `No; serial = false }

let off_srcs = function OffImm _ -> [] | OffReg r -> [ r ]

let shape (p : prim) : shape =
  match p with
  | PBin { dst; a; b; _ } ->
    { base_shape with srcs_g = [ a; b ]; dst_g = Some dst; r_ca = reads_ca p;
      w_ca = sets_ca p }
  | PBinI { dst; a; _ } ->
    { base_shape with srcs_g = [ a ]; dst_g = Some dst; w_ca = sets_ca p }
  | PLogic { dst; a; b; _ } ->
    { base_shape with srcs_g = [ a; b ]; dst_g = Some dst; w_ca = sets_ca p }
  | PUn { dst; a; _ } -> { base_shape with srcs_g = [ a ]; dst_g = Some dst }
  | PSrawi { dst; a; _ } ->
    { base_shape with srcs_g = [ a ]; dst_g = Some dst; w_ca = true }
  | PRlwinm { dst; a; _ } -> { base_shape with srcs_g = [ a ]; dst_g = Some dst }
  | PCmp { dst; a; b; _ } ->
    { base_shape with srcs_g = [ a; b ]; dst_c = Some dst; r_so = true }
  | PCmpI { dst; a; _ } ->
    { base_shape with srcs_g = [ a ]; dst_c = Some dst; r_so = true }
  | PLoad { dst; base; off; _ } ->
    { base_shape with srcs_g = base :: off_srcs off; dst_g = Some dst; mem = `Load }
  | PStore { src; base; off; _ } ->
    { base_shape with srcs_g = src :: base :: off_srcs off; mem = `Store }
  | PCrop { t = tf, _; a = af, _; b = bf, _; _ } ->
    (* the target field is read-modified-written, but only when it is an
       architected field whose other bits must be preserved *)
    let rmw = match tf with Crf _ -> [ tf ] | TmpC _ -> [] in
    { base_shape with srcs_c = rmw @ [ af; bf ]; dst_c = Some tf }
  | PMcrf { dst; src } -> { base_shape with srcs_c = [ src ]; dst_c = Some dst }
  | PMfcr { dst } ->
    { base_shape with srcs_c = List.init 8 (fun f -> Crf f); dst_g = Some dst }
  | PCrSet { field; src } ->
    { base_shape with srcs_g = [ src ]; dst_c = Some (Crf field) }
  | PGetXer { dst } ->
    { base_shape with dst_g = Some dst; r_ca = true; r_so = true; serial = true }
  | PSetXer { src } ->
    { base_shape with srcs_g = [ src ]; w_ca = true; serial = true }
  | PGetSpr { dst; _ } -> { base_shape with dst_g = Some dst; serial = true }
  | PSetSpr { src; _ } -> { base_shape with srcs_g = [ src ]; serial = true }
  | PGetMsr { dst } -> { base_shape with dst_g = Some dst; serial = true }
  | PSetMsr { src } -> { base_shape with srcs_g = [ src ]; serial = true }
