(* Execution of one tree VLIW instruction: the executable specification.

   This tree walker is the semantics that {!Compile}'s staged closures
   must reproduce, and the oracle the tests compare them against.  The
   VMM does not run it; it executes staged VLIWs only.

   Semantics (Chapter 2 / Section 3.5 of the paper):
   - all conditional tests read the state at VLIW entry and select one
     root-to-leaf path;
   - the operations on that path execute in parallel: every operand is
     read from the entry state, then all results are written (writes of
     in-order commits apply in program order, so multiple commits of the
     same architected register in one VLIW resolve like the base
     architecture would);
   - we give the VLIW "whole-instruction" exception semantics: if any
     non-speculative operation faults, uses a tagged register, or a
     store is found to conflict with a speculative load that bypassed it,
     the entire VLIW appears not to have executed and the VMM recovers
     from the precise base address recorded at VLIW entry. *)

open Ppc

(** Why a VLIW was rolled back with no state change. *)
type reason =
  | Rfault of { addr : int; write : bool }  (** non-speculative access fault *)
  | Rtag of Vstate.tag                      (** tagged register consumed *)
  | Ralias                                  (** store hit a bypassing load *)

(** A memory access performed by a VLIW, for cache models and the
    runtime alias check.  [seq] is the program-order sequence number the
    translator assigned; [passed_store] marks loads that were moved
    above at least one earlier store. *)
type access = {
  addr : int;
  bytes : int;
  seq : int;
  passed_store : bool;
  store : bool;
}

type outcome =
  | Done of { exit : Tree.exit; accesses : access list; nops : int }
  | Rollback of reason

exception Roll of reason

exception Error of string
(** A malformed VLIW: an open tip reached at runtime, an out-of-range
    register or condition-field location, or any other structural
    corruption of the tree.  Raised before any write is applied, so the
    architected state is exactly as it was at VLIW entry — the monitor's
    degradation ladder can quarantine the page and re-execute the same
    instructions by interpretation. *)

(* Pending writes, applied only if the whole VLIW succeeds. *)
type write =
  | Wgpr of Op.loc * int
  | Wtagged of Op.loc * int * Vstate.tag  (* speculative result + tag *)
  | Wext of Op.loc * bool
  | Wcr of Op.loc * int
  | Wcrtagged of Op.loc * int * Vstate.tag
  | Wca of bool
  | Wlr of int
  | Wctr of int
  | Wxer of int
  | Wspr of Op.slow_spr * int
  | Wmsr of int
  | Wstore of Insn.width * int * int
  | Wmmio_load of Op.loc * Insn.width * int
      (* I/O-space loads are side-effecting: defer them to the apply
         phase so a rolled-back VLIW never touches the device *)

let u32 = Interp.u32
let s32 = Interp.s32

(* Select the path: evaluate tests against entry state, collect ops. *)
let rec select (st : Vstate.t) (n : Tree.node) acc =
  (* [n.ops] is stored newest-first; the accumulator holds the whole
     path newest-first so the final reversal restores program order *)
  let acc = n.ops @ acc in
  match n.kind with
  | Tree.Open -> raise (Error "open tip reached at runtime")
  | Exit e -> (List.rev acc, e)
  | Branch { test; taken; fall } ->
    let field, tag = Vstate.get_cr_tagged st (test.bit / 4) in
    (match tag with Vstate.Clean -> () | t -> raise (Roll (Rtag t)));
    let bit = (field lsr (3 - (test.bit mod 4))) land 1 = 1 in
    select st (if bit = test.sense then taken else fall) acc

(* Read a GPR-space operand.  [spec] ops propagate tags; non-spec ops
   fault on them. *)
let rd st ~spec tagref l =
  let v, tag = Vstate.get st l in
  (match tag with
  | Vstate.Clean -> ()
  | t -> if spec then (if !tagref = Vstate.Clean then tagref := t) else raise (Roll (Rtag t)));
  v

(* Read a condition-field operand; speculative ops propagate tags. *)
let rd_cr st ~spec tagref l =
  let v, tag = Vstate.get_cr_tagged st l in
  (match tag with
  | Vstate.Clean -> ()
  | t -> if spec then (if !tagref = Vstate.Clean then tagref := t) else raise (Roll (Rtag t)));
  v

let eval_xo (op : Insn.xo_op) a b ca =
  (* result, carry_out option *)
  match op with
  | Add -> (u32 (a + b), None)
  | Addc ->
    let r = a + b in
    (u32 r, Some (r > 0xFFFF_FFFF))
  | Adde ->
    let r = a + b + if ca then 1 else 0 in
    (u32 r, Some (r > 0xFFFF_FFFF))
  | Subf -> (u32 (b - a), None)
  | Subfc -> (u32 (b - a), Some (b >= a))
  | Mullw -> (u32 (s32 a * s32 b), None)
  | Mulhw ->
    let p = Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)) in
    (u32 (Int64.to_int (Int64.shift_right p 32)), None)
  | Mulhwu ->
    let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    (u32 (Int64.to_int (Int64.shift_right_logical p 32)), None)
  | Divw -> ((if s32 b = 0 then 0 else u32 (s32 a / s32 b)), None)
  | Divwu -> ((if b = 0 then 0 else a / b), None)
  | Neg -> (u32 (-s32 a), None)

let eval_logic (op : Insn.x_op) s b =
  match op with
  | And_ -> (s land b, None)
  | Or_ -> (s lor b, None)
  | Xor_ -> (s lxor b, None)
  | Nand -> (u32 (lnot (s land b)), None)
  | Nor -> (u32 (lnot (s lor b)), None)
  | Andc -> (s land u32 (lnot b), None)
  | Eqv -> (u32 (lnot (s lxor b)), None)
  | Slw ->
    let n = b land 0x3F in
    ((if n >= 32 then 0 else u32 (s lsl n)), None)
  | Srw ->
    let n = b land 0x3F in
    ((if n >= 32 then 0 else s lsr n), None)
  | Sraw ->
    let n = b land 0x3F in
    if n >= 32 then
      ( (if s land 0x8000_0000 <> 0 then 0xFFFF_FFFF else 0),
        Some (s land 0x8000_0000 <> 0 && s <> 0) )
    else
      let lost = s land ((1 lsl n) - 1) in
      (u32 (s32 s asr n), Some (s land 0x8000_0000 <> 0 && lost <> 0))

let eval_ibin (op : Op.ibin) a imm =
  match op with
  | IAdd -> (u32 (a + imm), None)
  | IAddc ->
    let r = a + u32 imm in
    (u32 r, Some (r > 0xFFFF_FFFF))
  | IMul -> (u32 (s32 a * imm), None)
  | IAnd -> (a land imm, None)
  | IOr -> (a lor imm, None)
  | IXor -> (a lxor imm, None)

let cmp_bits so lt gt =
  let eq = (not lt) && not gt in
  (if lt then 8 else 0) lor (if gt then 4 else 0) lor (if eq then 2 else 0)
  lor if so then 1 else 0

(* Carry result goes to the machine CA if the destination is
   architected (in-order placement), to the extender bit otherwise. *)
let carry_writes rt = function
  | None -> []
  | Some c -> if Op.is_nonarch_gpr rt then [ Wext (rt, c) ] else [ Wca c ]

let cr_writes ~spec ~tag crt v =
  if spec && Op.is_nonarch_cr crt then [ Wcrtagged (crt, v, tag) ]
  else [ Wcr (crt, v) ]

let result_writes ~spec ~tag rt v =
  if spec && Op.is_nonarch_gpr rt then [ Wtagged (rt, v, tag) ] else [ Wgpr (rt, v) ]

(** Compute the effect of one operation against the entry state.
    Returns pending writes and an optional memory access. *)
let eval_op (st : Vstate.t) (mem : Mem.t) seq (op : Op.t) :
    write list * access option =
  match op with
  | Bin { op; rt; ra; rb; ca; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra and b = rd st ~spec tag rb in
    let ca_in = if op = Insn.Adde then Vstate.get_ca st ca else false in
    let v, cout = eval_xo op a b ca_in in
    (result_writes ~spec ~tag:!tag rt v @ carry_writes rt cout, None)
  | BinI { op; rt; ra; imm; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra in
    let v, cout = eval_ibin op a imm in
    (result_writes ~spec ~tag:!tag rt v @ carry_writes rt cout, None)
  | Logic { op; rt; ra; rb; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra and b = rd st ~spec tag rb in
    let v, cout = eval_logic op a b in
    (result_writes ~spec ~tag:!tag rt v @ carry_writes rt cout, None)
  | Un { op; rt; ra; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra in
    (result_writes ~spec ~tag:!tag rt (Interp.alu_x1 op a), None)
  | SrawiOp { rt; ra; sh; spec } ->
    let tag = ref Vstate.Clean in
    let s = rd st ~spec tag ra in
    let lost = if sh = 0 then 0 else s land ((1 lsl sh) - 1) in
    let c = s land 0x8000_0000 <> 0 && lost <> 0 in
    (result_writes ~spec ~tag:!tag rt (u32 (s32 s asr sh)) @ carry_writes rt (Some c), None)
  | RlwinmOp { rt; ra; sh; mb; me; spec } ->
    let tag = ref Vstate.Clean in
    let s = rd st ~spec tag ra in
    let v = Interp.rotl32 s sh land Interp.mask_mb_me mb me in
    (result_writes ~spec ~tag:!tag rt v, None)
  | CmpOp { signed; crt; ra; rb; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra and b = rd st ~spec tag rb in
    let lt, gt = if signed then (s32 a < s32 b, s32 a > s32 b) else (a < b, a > b) in
    (cr_writes ~spec ~tag:!tag crt (cmp_bits st.m.xer_so lt gt), None)
  | CmpIOp { signed; crt; ra; imm; spec } ->
    let tag = ref Vstate.Clean in
    let a = rd st ~spec tag ra in
    let b = if signed then u32 imm else imm in
    let lt, gt = if signed then (s32 a < s32 b, s32 a > s32 b) else (a < b, a > b) in
    (cr_writes ~spec ~tag:!tag crt (cmp_bits st.m.xer_so lt gt), None)
  | LoadOp { w; alg; rt; base; off; spec; passed } ->
    let tag = ref Vstate.Clean in
    let b = rd st ~spec tag base in
    let o = match off with Op.OImm i -> i | OReg r -> rd st ~spec tag r in
    let addr = u32 (b + o) in
    if spec && Mem.is_mmio addr then ([ Wtagged (rt, 0, Vstate.Tmmio) ], None)
    else if Mem.is_mmio addr then ([ Wmmio_load (rt, w, addr) ], None)
    else (
      match Mem.load mem w addr with
      | v ->
        let v =
          if alg && w = Insn.Half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16)
          else v
        in
        ( result_writes ~spec ~tag:!tag rt v,
          Some { addr; bytes = Mem.width_bytes w; seq; passed_store = passed;
                 store = false } )
      | exception Mem.Data_fault _ ->
        if spec then ([ Wtagged (rt, 0, Vstate.Tfault addr) ], None)
        else raise (Roll (Rfault { addr; write = false })))
  | StoreOp { w; rs; base; off } ->
    let tag = ref Vstate.Clean in
    let v = rd st ~spec:false tag rs in
    let b = rd st ~spec:false tag base in
    let o = match off with Op.OImm i -> i | OReg r -> rd st ~spec:false tag r in
    let addr = u32 (b + o) in
    let n = Mem.width_bytes w in
    if (not (Mem.is_mmio addr)) && not (Mem.in_bounds mem addr n) then
      raise (Roll (Rfault { addr; write = true }));
    ( [ Wstore (w, addr, v) ],
      Some { addr; bytes = n; seq; passed_store = false; store = true } )
  | CropOp { op; bt; ba; bb; old; spec } ->
    let tag = ref Vstate.Clean in
    let bitval i =
      (rd_cr st ~spec tag (i / 4) lsr (3 - (i mod 4))) land 1
    in
    let a = bitval ba and b = bitval bb in
    let v =
      match op with
      | Insn.Crand -> a land b
      | Cror -> a lor b
      | Crxor -> a lxor b
      | Crnand -> 1 - (a land b)
      | Crnor -> 1 - (a lor b)
      | Crandc -> a land (1 - b)
      | Creqv -> 1 - (a lxor b)
      | Crorc -> a lor (1 - b)
    in
    let fld = bt / 4 and pos = 3 - (bt mod 4) in
    let prev = if old < 0 then 0 else rd_cr st ~spec tag old in
    (cr_writes ~spec ~tag:!tag fld (prev land lnot (1 lsl pos) lor (v lsl pos)), None)
  | McrfOp { dst; src; spec } ->
    let tag = ref Vstate.Clean in
    (cr_writes ~spec ~tag:!tag dst (rd_cr st ~spec tag src), None)
  | MfcrOp { rt; srcs } ->
    let tag = ref Vstate.Clean in
    let v = ref 0 in
    for f = 0 to 7 do
      v := (!v lsl 4) lor rd_cr st ~spec:false tag srcs.(f)
    done;
    ([ Wgpr (rt, !v) ], None)
  | CrSetOp { crt; rs; pos } ->
    let tag = ref Vstate.Clean in
    let v = rd st ~spec:false tag rs in
    ([ Wcr (crt, (v lsr (4 * (7 - pos))) land 0xF) ], None)
  | GetXer { rt } -> ([ Wgpr (rt, Machine.get_xer st.m) ], None)
  | SetXer { rs } ->
    let tag = ref Vstate.Clean in
    ([ Wxer (rd st ~spec:false tag rs) ], None)
  | GetSpr { rt; spr } ->
    let v =
      match spr with
      | Op.Xer -> Machine.get_xer st.m
      | Srr0 -> st.m.srr0
      | Srr1 -> st.m.srr1
      | Dar -> st.m.dar
      | Dsisr -> st.m.dsisr
      | Sprg0 -> st.m.sprg0
      | Sprg1 -> st.m.sprg1
      | Msr -> st.m.msr
    in
    ([ Wgpr (rt, v) ], None)
  | SetSpr { spr; rs } ->
    let tag = ref Vstate.Clean in
    ([ Wspr (spr, rd st ~spec:false tag rs) ], None)
  | GetMsr { rt } -> ([ Wgpr (rt, st.m.msr) ], None)
  | SetMsr { rs } ->
    let tag = ref Vstate.Clean in
    ([ Wmsr (rd st ~spec:false tag rs land 0xFFFF) ], None)
  | CommitG { arch; src } ->
    let tag = ref Vstate.Clean in
    ([ Wgpr (arch, rd st ~spec:false tag src) ], None)
  | CommitCr { arch; src } ->
    let tag = ref Vstate.Clean in
    ([ Wcr (arch, rd_cr st ~spec:false tag src) ], None)
  | CommitLr { src } ->
    let tag = ref Vstate.Clean in
    ([ Wlr (rd st ~spec:false tag src) ], None)
  | CommitCtr { src } ->
    let tag = ref Vstate.Clean in
    ([ Wctr (rd st ~spec:false tag src) ], None)
  | CommitCa { src } -> ([ Wca (Vstate.get_ca st src) ], None)

(* A write whose destination its [Vstate] setter refuses raises that
   setter's [Invalid_argument] as soon as its op has evaluated, so the
   VLIW stops before any write applies; the other kinds name valid
   locations by construction. *)
let check_write = function
  | Wgpr (l, _) | Wmmio_load (l, _, _) ->
    if not (Vstate.gpr_dest l) then Vstate.refuse_gpr ()
  | Wtagged (l, _, _) -> if not (Op.is_nonarch_gpr l) then Vstate.refuse_tag ()
  | Wcr (l, _) -> if not (Vstate.cr_dest l) then Vstate.refuse_cr ()
  | Wext _ | Wcrtagged _ | Wca _ | Wlr _ | Wctr _ | Wxer _ | Wspr _ | Wmsr _
  | Wstore _ -> ()

let apply (st : Vstate.t) (mem : Mem.t) = function
  | Wgpr (l, v) -> Vstate.set_gpr st l v
  | Wtagged (l, v, tag) ->
    Vstate.set_gpr st l v;
    Vstate.set_tag st l tag
  | Wext (l, b) -> Vstate.set_ext st l b
  | Wcr (l, v) -> Vstate.set_cr st l v
  | Wcrtagged (l, v, tag) ->
    Vstate.set_cr st l v;
    Vstate.set_cr_tag st l tag
  | Wca b -> st.m.xer_ca <- b
  | Wlr v -> st.m.lr <- v
  | Wctr v -> st.m.ctr <- v
  | Wxer v -> Machine.set_xer st.m v
  | Wspr (spr, v) -> (
    match spr with
    | Op.Xer -> Machine.set_xer st.m v
    | Srr0 -> st.m.srr0 <- v
    | Srr1 -> st.m.srr1 <- v
    | Dar -> st.m.dar <- v
    | Dsisr -> st.m.dsisr <- v
    | Sprg0 -> st.m.sprg0 <- v
    | Sprg1 -> st.m.sprg1 <- v
    | Msr -> st.m.msr <- v)
  | Wmsr v -> st.m.msr <- v
  | Wstore (w, addr, v) -> Mem.store mem w addr v
  | Wmmio_load (l, w, addr) -> Vstate.set_gpr st l (Mem.load mem w addr)

(** Execute [vliw] against [st]/[mem].  When at least one of this VLIW's
    accesses is a store, [alias_check] receives them all (in program
    order of their sequence numbers is NOT guaranteed; callers filter by
    [seq]) and must return [false] to force an alias rollback; a
    store-free VLIW cannot conflict and is not checked.  On success all
    writes are applied.

    [Invalid_argument]/[Failure] escapes from the select/evaluate phase
    (a corrupted tree indexing a location that does not exist) surface
    as {!Error}: they happen before any write is applied, so raising is
    state-preserving, exactly like a rollback. *)
let run (st : Vstate.t) (mem : Mem.t) ?(alias_check = fun (_ : access list) -> true)
    (vliw : Tree.t) : outcome =
  match
    let ops, exit = select st (Tree.root vliw) [] in
    let writes = ref [] and accesses = ref [] and nops = ref 0 in
    List.iter
      (fun (seq, op) ->
        incr nops;
        let ws, acc = eval_op st mem seq op in
        List.iter check_write ws;
        writes := ws :: !writes;
        match acc with Some a -> accesses := a :: !accesses | None -> ())
      ops;
    if
      List.exists (fun (a : access) -> a.store) !accesses
      && not (alias_check !accesses)
    then raise (Roll Ralias);
    (!writes, !accesses, !nops, exit)
  with
  | exception Roll r -> Rollback r
  | exception Invalid_argument msg -> raise (Error ("Invalid_argument: " ^ msg))
  | exception Failure msg -> raise (Error ("Failure: " ^ msg))
  | writes, accesses, nops, exit ->
    (* apply in program order: [writes] was accumulated reversed *)
    List.iter (fun ws -> List.iter (apply st mem) ws) (List.rev writes);
    Done { exit; accesses; nops }
