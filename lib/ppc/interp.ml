(* Reference interpreter for the base architecture.

   This is the golden model: DAISY-translated execution must be
   observationally identical to it.  It is also reused by the VMM for
   the brief interpretation episodes the paper prescribes (after [rfi],
   and when recovering from an exception or a load/store alias inside a
   VLIW group).

   Interrupts are delivered exactly as the architecture specifies:
   SRR0/SRR1 capture the return point and MSR, and control transfers to
   the architected vector, where the miniature base OS resides.

   Each executed word is decoded once.  The first time a pc executes,
   its word becomes an operation closure with its operands and
   constants bound (the next pc, the branch target, the immediate, the
   rlwinm mask), kept in a direct-mapped slot tagged with that pc and
   word.  Every step still fetches first, so an instruction storage
   interrupt is delivered as before, and runs the slot's closure only
   when the fetched word equals the slot's: a store over code that
   already ran, a rewritten word or one that has become illegal simply
   misses and refills, with no store hook.  The closures are built from
   {!Decode}'s {!Insn.t} alone, never from the translator's cracking,
   so the reference stays independent of what it checks. *)

let mask32 = 0xFFFF_FFFF

(** Sign-extend a 32-bit value to a native int. *)
let s32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let u32 v = v land mask32

module Vector = struct
  let dsi = 0x300      (* data storage interrupt *)
  let isi = 0x400      (* instruction storage interrupt *)
  let external_ = 0x500
  let program = 0x700  (* illegal / privileged instruction *)
  let syscall = 0xC00
end

(** One predecoded word. *)
type slot = {
  s_pc : int;               (** the address it was fetched from; -1: empty *)
  s_word : int;             (** the word fetched there *)
  s_insn : Insn.t option;   (** its decoding, for [trace]; [None] if illegal *)
  s_run : unit -> unit;
      (** executes it: on completion [st.pc] is the next instruction or
          the vector of the interrupt it took *)
  s_stop : bool;            (** does it end an interpretation episode *)
}

type t = {
  st : Machine.t;
  mem : Mem.t;
  mutable icount : int;          (** dynamic base instructions executed *)
  mutable touched : (int, unit) Hashtbl.t;
      (** static instruction addresses executed at least once (reuse factor) *)
  mutable trace : (int -> Insn.t -> unit) option;
  mutable slots : slot array;
      (** direct-mapped by [(pc lsr 2) land (length - 1)] *)
  mutable fills : int;           (** slots filled since the table last grew *)
}

let empty_slot =
  { s_pc = -1; s_word = -1; s_insn = None; s_run = ignore; s_stop = false }

(* The slot table starts small enough for the minor heap and grows with
   the executed static footprint, up to one slot per word of a 256 KiB
   program. *)
let initial_slots = 64
let max_slots = 1 lsl 16

let create st mem =
  { st; mem; icount = 0; touched = Hashtbl.create 64; trace = None;
    slots = Array.make initial_slots empty_slot; fills = 0 }

(** Number of distinct static instruction words executed. *)
let static_touched t = Hashtbl.length t.touched

let interrupt (st : Machine.t) ~return_pc vector =
  st.srr0 <- return_pc;
  st.srr1 <- st.msr;
  st.msr <- st.msr land lnot (Machine.Msr.ee lor Machine.Msr.pr);
  st.pc <- vector

let record_cmp (st : Machine.t) bf lt gt =
  let eq = (not lt) && not gt in
  let v =
    (if lt then 8 else 0) lor (if gt then 4 else 0)
    lor (if eq then 2 else 0)
    lor if st.xer_so then 1 else 0
  in
  Machine.set_crf st bf v

let record_rc st result = record_cmp st 0 (s32 result < 0) (s32 result > 0)

let cmp_s st bf a b = record_cmp st bf (s32 a < s32 b) (s32 a > s32 b)
let cmp_u st bf a b = record_cmp st bf (a < b) (a > b)

(** Mask with ones in big-endian bit positions [lo..hi]. *)
let range_mask lo hi =
  if lo > hi then 0 else ((1 lsl (hi - lo + 1)) - 1) lsl (31 - hi)

(** rlwinm mask from mb to me in big-endian bit numbering; [mb > me]
    denotes the wrap-around mask. *)
let mask_mb_me mb me =
  if mb <= me then range_mask mb me
  else mask32 land lnot (range_mask (me + 1) (mb - 1))

let rotl32 v n = u32 ((v lsl n) lor (v lsr (32 - n)))

let alu_xo (st : Machine.t) (op : Insn.xo_op) a b =
  match op with
  | Add -> u32 (a + b)
  | Addc ->
    let r = a + b in
    st.xer_ca <- r > mask32;
    u32 r
  | Adde ->
    let r = a + b + if st.xer_ca then 1 else 0 in
    st.xer_ca <- r > mask32;
    u32 r
  | Subf -> u32 (b - a)
  | Subfc ->
    let r = b - a in
    st.xer_ca <- b >= a;
    u32 r
  | Mullw -> u32 (s32 a * s32 b)
  | Mulhw ->
    let p = Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)) in
    u32 (Int64.to_int (Int64.shift_right p 32))
  | Mulhwu ->
    let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    u32 (Int64.to_int (Int64.shift_right_logical p 32))
  | Divw -> if s32 b = 0 then 0 else u32 (s32 a / s32 b)
  | Divwu -> if b = 0 then 0 else a / b
  | Neg -> u32 (- (s32 a))

let alu_x (st : Machine.t) (op : Insn.x_op) s b =
  match op with
  | And_ -> s land b
  | Or_ -> s lor b
  | Xor_ -> s lxor b
  | Nand -> u32 (lnot (s land b))
  | Nor -> u32 (lnot (s lor b))
  | Andc -> s land u32 (lnot b)
  | Eqv -> u32 (lnot (s lxor b))
  | Slw ->
    let n = b land 0x3F in
    if n >= 32 then 0 else u32 (s lsl n)
  | Srw ->
    let n = b land 0x3F in
    if n >= 32 then 0 else s lsr n
  | Sraw ->
    let n = b land 0x3F in
    if n >= 32 then (
      st.xer_ca <- s land 0x8000_0000 <> 0 && s <> 0;
      if s land 0x8000_0000 <> 0 then mask32 else 0)
    else (
      let lost = s land ((1 lsl n) - 1) in
      st.xer_ca <- s land 0x8000_0000 <> 0 && lost <> 0;
      u32 (s32 s asr n))

(* Leading zeros of [s] from big-endian bit [i] on.  (Top level, not a
   local [go]: a local closure would be allocated for every cntlzw.) *)
let rec cntlz s i =
  if i >= 32 then 32
  else if s land (1 lsl (31 - i)) <> 0 then i
  else cntlz s (i + 1)

let alu_x1 (op : Insn.x1_op) s =
  match op with
  | Cntlzw -> cntlz s 0
  | Extsb -> u32 (s32 ((s land 0xFF) lsl 24) asr 24)
  | Extsh -> u32 (s32 ((s land 0xFFFF) lsl 16) asr 16)

(** [bc_taken st bo bi] decides a conditional branch and performs the
    CTR decrement the BO field requests. *)
let bc_taken (st : Machine.t) bo bi =
  let ctr_ok =
    if Insn.Bo.no_ctr_dec bo then true
    else (
      st.ctr <- u32 (st.ctr - 1);
      let z = st.ctr = 0 in
      if Insn.Bo.ctr_zero_sense bo then z else not z)
  in
  let cond_ok =
    Insn.Bo.ignores_cond bo
    || Machine.get_crb st bi = if Insn.Bo.cond_sense bo then 1 else 0
  in
  ctr_ok && cond_ok

let ea (st : Machine.t) ra d = u32 ((if ra = 0 then 0 else st.gpr.(ra)) + d)
let eax (st : Machine.t) ra rb =
  u32 ((if ra = 0 then 0 else st.gpr.(ra)) + st.gpr.(rb))

let load_val mem (w : Insn.width) alg addr =
  let v = Mem.load mem w addr in
  if alg && w = Half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16) else v

(* Deliver a data storage interrupt for the instruction at [pc]. *)
let dsi (st : Machine.t) pc addr write =
  st.dar <- addr;
  st.dsisr <- (if write then 0x0200_0000 else 0x4000_0000);
  interrupt st ~return_pc:pc Vector.dsi

(** Does [i] end one of the VMM's interpretation episodes (Section 3.4):
    a subroutine call, an indirect branch, or a system instruction? *)
let ends_episode : Insn.t -> bool = function
  | B (_, _, lk) | Bc (_, _, _, _, lk) -> lk
  | Bclr _ | Bcctr _ | Sc | Rfi -> true
  | _ -> false

(* Execute the forms that have no closure of their own (see
   [predecode]): rare, system, or touching many registers or words.
   [pc] is the instruction's address; on normal completion [st.pc]
   points at the next instruction. *)
let exec (t : t) pc (i : Insn.t) =
  let st = t.st and mem = t.mem in
  let g = st.gpr in
  let next = ref (u32 (pc + 4)) in
  (match i with
  | Lmw (rt, ra, d) ->
    let a = ref (ea st ra d) in
    for r = rt to 31 do
      g.(r) <- Mem.load mem Word !a;
      a := u32 (!a + 4)
    done
  | Stmw (rs, ra, d) ->
    let a = ref (ea st ra d) in
    for r = rs to 31 do
      Mem.store mem Word !a g.(r);
      a := u32 (!a + 4)
    done
  | Crop (op, bt, ba, bb) ->
    let a = Machine.get_crb st ba and b = Machine.get_crb st bb in
    let v =
      match op with
      | Crand -> a land b
      | Cror -> a lor b
      | Crxor -> a lxor b
      | Crnand -> 1 - (a land b)
      | Crnor -> 1 - (a lor b)
      | Crandc -> a land (1 - b)
      | Creqv -> 1 - (a lxor b)
      | Crorc -> a lor (1 - b)
    in
    Machine.set_crb st bt v
  | Mcrf (bf, bfa) -> Machine.set_crf st bf (Machine.get_crf st bfa)
  | Mfcr rt -> g.(rt) <- st.cr
  | Mtcrf (fxm, rs) ->
    for f = 0 to 7 do
      if fxm land (0x80 lsr f) <> 0 then
        Machine.set_crf st f ((g.(rs) lsr (4 * (7 - f))) land 0xF)
    done
  | Mfspr (rt, spr) -> g.(rt) <- Machine.get_spr st spr
  | Mtspr (spr, rs) -> Machine.set_spr st spr g.(rs)
  | Mfmsr rt -> g.(rt) <- st.msr
  | Mtmsr rs -> st.msr <- g.(rs) land 0xFFFF
  | Sc -> interrupt st ~return_pc:(u32 (pc + 4)) Vector.syscall
  | Rfi ->
    st.msr <- st.srr1;
    next := st.srr0 land lnot 3
  | Isync -> ()
  | _ -> invalid_arg "Interp.exec: a form with its own closure");
  match i with Sc -> () | _ -> st.pc <- !next

(* addi and addis, ori and oris.  (Top level, not local to
   [predecode]: a local helper would be a closure allocated at every
   fill, whichever form it fills.) *)
let add_imm (st : Machine.t) next rt ra imm () =
  st.gpr.(rt) <- u32 ((if ra = 0 then 0 else st.gpr.(ra)) + imm);
  st.pc <- next

let or_imm (st : Machine.t) next ra rs imm () =
  st.gpr.(ra) <- st.gpr.(rs) lor imm;
  st.pc <- next

(* The operation closure for [i] at [pc], with its operands and
   constants bound.  Each closure sets [st.pc] as its last act; the
   memory forms deliver a data storage interrupt instead when their
   access faults, and no other closure installs a handler. *)
let predecode (t : t) pc (i : Insn.t) : unit -> unit =
  let st = t.st and mem = t.mem in
  let g = st.gpr in
  let next = u32 (pc + 4) in
  match i with
  | Addi (rt, ra, si) -> add_imm st next rt ra si
  | Addis (rt, ra, si) -> add_imm st next rt ra (si lsl 16)
  | Addic (rt, ra, si) ->
    let si = u32 si in
    fun () ->
      let r = g.(ra) + si in
      st.xer_ca <- r > mask32;
      g.(rt) <- u32 r;
      st.pc <- next
  | Mulli (rt, ra, si) ->
    fun () ->
      g.(rt) <- u32 (s32 g.(ra) * si);
      st.pc <- next
  | Cmpi (bf, ra, si) ->
    let si = u32 si in
    fun () ->
      cmp_s st bf g.(ra) si;
      st.pc <- next
  | Cmpli (bf, ra, ui) ->
    fun () ->
      cmp_u st bf g.(ra) ui;
      st.pc <- next
  | Andi (rs, ra, ui) ->
    fun () ->
      g.(ra) <- g.(rs) land ui;
      record_rc st g.(ra);
      st.pc <- next
  | Ori (rs, ra, ui) -> or_imm st next ra rs ui
  | Oris (rs, ra, ui) -> or_imm st next ra rs (ui lsl 16)
  | Xori (rs, ra, ui) ->
    fun () ->
      g.(ra) <- g.(rs) lxor ui;
      st.pc <- next
  | Xo (op, rt, ra, rb, rc) ->
    (* neg reads no rB *)
    let rb_used = op <> Neg in
    fun () ->
      g.(rt) <- alu_xo st op g.(ra) (if rb_used then g.(rb) else 0);
      if rc then record_rc st g.(rt);
      st.pc <- next
  | X (op, ra, rs, rb, rc) ->
    fun () ->
      g.(ra) <- alu_x st op g.(rs) g.(rb);
      if rc then record_rc st g.(ra);
      st.pc <- next
  | X1 (op, ra, rs, rc) ->
    fun () ->
      g.(ra) <- alu_x1 op g.(rs);
      if rc then record_rc st g.(ra);
      st.pc <- next
  | Srawi (ra, rs, sh, rc) ->
    let low = (1 lsl sh) - 1 in
    fun () ->
      let s = g.(rs) in
      st.xer_ca <- s land 0x8000_0000 <> 0 && s land low <> 0;
      g.(ra) <- u32 (s32 s asr sh);
      if rc then record_rc st g.(ra);
      st.pc <- next
  | Cmp (bf, ra, rb) ->
    fun () ->
      cmp_s st bf g.(ra) g.(rb);
      st.pc <- next
  | Cmpl (bf, ra, rb) ->
    fun () ->
      cmp_u st bf g.(ra) g.(rb);
      st.pc <- next
  | Rlwinm (ra, rs, sh, mb, me, rc) ->
    let mask = mask_mb_me mb me in
    fun () ->
      g.(ra) <- rotl32 g.(rs) sh land mask;
      if rc then record_rc st g.(ra);
      st.pc <- next
  | Load (w, alg, rt, ra, d) ->
    fun () ->
      (try
         g.(rt) <- load_val mem w alg (ea st ra d);
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Store (w, rs, ra, d) ->
    fun () ->
      (try
         Mem.store mem w (ea st ra d) g.(rs);
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Loadx (w, alg, rt, ra, rb) ->
    fun () ->
      (try
         g.(rt) <- load_val mem w alg (eax st ra rb);
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Storex (w, rs, ra, rb) ->
    fun () ->
      (try
         Mem.store mem w (eax st ra rb) g.(rs);
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Lwzu (rt, ra, d) ->
    fun () ->
      (try
         let a = ea st ra d in
         g.(rt) <- Mem.load mem Word a;
         g.(ra) <- a;
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Stwu (rs, ra, d) ->
    fun () ->
      (try
         let a = ea st ra d in
         Mem.store mem Word a g.(rs);
         g.(ra) <- a;
         st.pc <- next
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | B (li, aa, lk) ->
    let target = u32 (if aa then li else pc + li) in
    fun () ->
      if lk then st.lr <- next;
      st.pc <- target
  | Bc (bo, bi, bd, aa, lk) ->
    let target = u32 (if aa then bd else pc + bd) in
    fun () ->
      if lk then st.lr <- next;
      st.pc <- (if bc_taken st bo bi then target else next)
  | Bclr (bo, bi, lk) ->
    fun () ->
      let target = st.lr land lnot 3 in
      if lk then st.lr <- next;
      st.pc <- (if bc_taken st bo bi then target else next)
  | Bcctr (bo, bi, lk) ->
    fun () ->
      if lk then st.lr <- next;
      st.pc <- (if bc_taken st bo bi then st.ctr land lnot 3 else next)
  | Lmw _ | Stmw _ ->
    fun () ->
      (try exec t pc i
       with Mem.Data_fault { addr; write } -> dsi st pc addr write)
  | Crop _ | Mcrf _ | Mfcr _ | Mtcrf _ | Mfspr _ | Mtspr _ | Mfmsr _
  | Mtmsr _ | Sc | Rfi | Isync ->
    fun () -> exec t pc i

(* Grow the slot table fourfold.  Slots keep their place modulo the old
   size, so no two of them collide in the new table. *)
let grow t =
  let slots = Array.make (4 * Array.length t.slots) empty_slot in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun s -> if s.s_pc >= 0 then slots.((s.s_pc lsr 2) land mask) <- s)
    t.slots;
  t.slots <- slots;
  t.fills <- 0

(* Decode the word [w] fetched at [pc] into its slot.  The table grows
   once the fills since its last growth exceed twice its size: a
   footprint it holds fills each slot about once, one it cannot hold
   keeps evicting. *)
let fill t pc w =
  let st = t.st in
  let insn = Decode.decode w in
  let s =
    match insn with
    | Some i ->
      { s_pc = pc; s_word = w; s_insn = insn; s_run = predecode t pc i;
        s_stop = ends_episode i }
    | None ->
      { s_pc = pc; s_word = w; s_insn = None;
        s_run = (fun () -> interrupt st ~return_pc:pc Vector.program);
        s_stop = false }
  in
  if not (Hashtbl.mem t.touched pc) then Hashtbl.add t.touched pc ();
  t.fills <- t.fills + 1;
  if t.fills > 2 * Array.length t.slots && Array.length t.slots < max_slots
  then grow t;
  t.slots.((pc lsr 2) land (Array.length t.slots - 1)) <- s;
  s

(** Execute a single instruction, delivering instruction-storage, data-
    storage and program interrupts to the base OS vectors.  Returns
    whether the instruction ends an interpretation episode (false when
    it could not be fetched or is illegal).  Raises {!Mem.Halted} when
    the program stores to the halt MMIO word. *)
let step (t : t) =
  let st = t.st in
  let pc = st.pc in
  match Mem.fetch t.mem pc with
  | exception Mem.Data_fault _ ->
    interrupt st ~return_pc:pc Vector.isi;
    false
  | w ->
    t.icount <- t.icount + 1;
    let s = t.slots.((pc lsr 2) land (Array.length t.slots - 1)) in
    let s = if s.s_pc = pc && s.s_word = w then s else fill t pc w in
    (match t.trace, s.s_insn with Some f, Some i -> f pc i | _ -> ());
    s.s_run ();
    s.s_stop

(** [run t ~fuel] steps until the program halts or [fuel] instructions
    have executed; returns the exit code, or [None] if fuel ran out. *)
let run (t : t) ~fuel =
  let rec go n =
    if n <= 0 then None
    else
      match step t with
      | (_ : bool) -> go (n - 1)
      | exception Mem.Halted code -> Some code
  in
  go fuel
