(* Reference interpreter for the S/390 subset, operating directly on
   the shared superset state ({!Ppc.Machine.t}): GPR0..15 live in the
   first sixteen GPRs, the condition code lives one-hot in condition
   field 0, and the PC is the machine PC.  This is the golden model the
   DAISY-translated execution of S/390 binaries must match exactly. *)

module Machine = Ppc.Machine
module Mem = Ppc.Mem

let u32 = Ppc.Interp.u32
let s32 = Ppc.Interp.s32

(** Effective address d(x, b) in 31-bit mode. *)
let ea (st : Machine.t) ~x ~b ~d =
  let part r = if r = 0 then 0 else st.gpr.(r) in
  (part b + part x + d) land Insn.amask

let set_cc (st : Machine.t) cc = Machine.set_crf st 0 (Insn.cc_to_field cc)

(** CC of an arithmetic/logical result (subset rule: sign-based). *)
let cc_of_result v = if v = 0 then 0 else if s32 v < 0 then 1 else 2

let cc_of_scmp a b = if s32 a = s32 b then 0 else if s32 a < s32 b then 1 else 2
let cc_of_ucmp a b = if a = b then 0 else if a < b then 1 else 2

(** Is the current CC selected by branch mask [m]? *)
let mask_taken (st : Machine.t) m =
  let field = Machine.get_crf st 0 in
  List.exists (fun bit -> field land (8 lsr bit) <> 0) (Insn.mask_bits m)

type t = {
  st : Machine.t;
  mem : Mem.t;
  mutable icount : int;
  touched : (int, unit) Hashtbl.t;
}

(* Creating an interpreter normalizes the condition code into its
   one-hot embedding (a freshly reset machine has condition field 0
   all-zero, which corresponds to no legal S/390 CC; the architected
   initial CC is 0).  Both the reference runs and the VMM go through
   this, so the embedding invariant — exactly one of the four bits set
   — holds at all times, which the translator's complement-mask branch
   tests rely on. *)
let create (st : Machine.t) mem =
  if Machine.get_crf st 0 land 0xF = 0 then set_cc st 0;
  { st; mem; icount = 0; touched = Hashtbl.create 256 }

let static_touched t = Hashtbl.length t.touched

exception Illegal of int

let exec (t : t) pc (i : Insn.t) len =
  let st = t.st and mem = t.mem in
  let g = st.gpr in
  let next = ref (pc + len) in
  (match i with
  | RR (op, r1, r2) -> (
    match op with
    | LR_ -> g.(r1) <- g.(r2)
    | AR ->
      g.(r1) <- u32 (g.(r1) + g.(r2));
      set_cc st (cc_of_result g.(r1))
    | SR ->
      g.(r1) <- u32 (g.(r1) - g.(r2));
      set_cc st (cc_of_result g.(r1))
    | NR ->
      g.(r1) <- g.(r1) land g.(r2);
      set_cc st (cc_of_result g.(r1))
    | OR_ ->
      g.(r1) <- g.(r1) lor g.(r2);
      set_cc st (cc_of_result g.(r1))
    | XR_ ->
      g.(r1) <- g.(r1) lxor g.(r2);
      set_cc st (cc_of_result g.(r1))
    | CR_ -> set_cc st (cc_of_scmp g.(r1) g.(r2))
    | LTR ->
      g.(r1) <- g.(r2);
      set_cc st (cc_of_result g.(r1)))
  | BALR (r1, r2) ->
    let target = g.(r2) land Insn.amask in
    g.(r1) <- u32 (pc + len);
    if r2 <> 0 then next := target
  | BCR (m, r2) ->
    if r2 <> 0 && mask_taken st m then next := g.(r2) land Insn.amask
  | RX (op, r1, x2, b2, d2) -> (
    let a = ea st ~x:x2 ~b:b2 ~d:d2 in
    match op with
    | L -> g.(r1) <- Mem.load32 mem a
    | ST_ -> Mem.store32 mem a g.(r1)
    | A ->
      g.(r1) <- u32 (g.(r1) + Mem.load32 mem a);
      set_cc st (cc_of_result g.(r1))
    | S ->
      g.(r1) <- u32 (g.(r1) - Mem.load32 mem a);
      set_cc st (cc_of_result g.(r1))
    | N ->
      g.(r1) <- g.(r1) land Mem.load32 mem a;
      set_cc st (cc_of_result g.(r1))
    | O ->
      g.(r1) <- g.(r1) lor Mem.load32 mem a;
      set_cc st (cc_of_result g.(r1))
    | X ->
      g.(r1) <- g.(r1) lxor Mem.load32 mem a;
      set_cc st (cc_of_result g.(r1))
    | C -> set_cc st (cc_of_scmp g.(r1) (Mem.load32 mem a))
    | LA -> g.(r1) <- a
    | LH ->
      let v = Mem.load16 mem a in
      g.(r1) <- u32 (s32 ((v land 0xFFFF) lsl 16) asr 16)
    | STH -> Mem.store16 mem a g.(r1)
    | STC -> Mem.store8 mem a g.(r1)
    | IC -> g.(r1) <- g.(r1) land lnot 0xFF lor Mem.load8 mem a
    | BAL ->
      g.(r1) <- u32 (pc + len);
      next := a
    | BCT ->
      g.(r1) <- u32 (g.(r1) - 1);
      if g.(r1) <> 0 then next := a)
  | BC (m, x2, b2, d2) ->
    if mask_taken st m then next := ea st ~x:x2 ~b:b2 ~d:d2
  | SLL (r1, n) -> g.(r1) <- u32 (g.(r1) lsl n)
  | SRL (r1, n) -> g.(r1) <- g.(r1) lsr n
  | SI (op, d1, b1, i2) -> (
    let a = ea st ~x:0 ~b:b1 ~d:d1 in
    match op with
    | MVI -> Mem.store8 mem a i2
    | CLI -> set_cc st (cc_of_ucmp (Mem.load8 mem a) (i2 land 0xFF))
    | TM ->
      let v = Mem.load8 mem a land i2 in
      set_cc st (if v = 0 then 0 else 2))
  | MVC (l, d1, b1, d2, b2) ->
    let dst = ea st ~x:0 ~b:b1 ~d:d1 and src = ea st ~x:0 ~b:b2 ~d:d2 in
    for k = 0 to l do
      Mem.store8 mem (dst + k) (Mem.load8 mem (src + k))
    done);
  st.pc <- !next

(** Does [i] end one of the VMM's interpretation episodes: a call
    (BALR, BAL) or a branch (BCR, BC, BCT)? *)
let ends_episode : Insn.t -> bool = function
  | BALR _ | BCR _ | BC _ | RX ((BAL | BCT), _, _, _, _) -> true
  | _ -> false

(** Execute one instruction and return whether it ends an
    interpretation episode; raises {!Illegal} outside the subset and
    {!Ppc.Mem.Halted} on the halt store. *)
let step (t : t) =
  let pc = t.st.pc in
  match Decode.decode t.mem pc with
  | None -> raise (Illegal pc)
  | Some (i, len) ->
    t.icount <- t.icount + 1;
    if not (Hashtbl.mem t.touched pc) then Hashtbl.add t.touched pc ();
    exec t pc i len;
    ends_episode i

(** Run until halt or [fuel] instructions; returns the exit code. *)
let run (t : t) ~fuel =
  let rec go n =
    if n <= 0 then None
    else
      match step t with
      | (_ : bool) -> go (n - 1)
      | exception Mem.Halted code -> Some code
  in
  go fuel
