(* Architected state of the base architecture.

   Everything the base OS can see lives here: 32 GPRs, the condition
   register, LR/CTR, the XER bits, the machine state register and the
   interrupt save/restore registers.  All register values are kept as
   unsigned 32-bit quantities in OCaml ints. *)

let mask32 = 0xFFFF_FFFF

(** MSR bit masks (a small subset). *)
module Msr = struct
  let ee = 0x8000  (* external interrupts enabled *)
  let pr = 0x4000  (* problem (user) state *)
end

type t = {
  gpr : int array;        (** 32 general registers *)
  mutable cr : int;       (** 32-bit condition register, bit 0 = MSB *)
  mutable lr : int;
  mutable ctr : int;
  mutable xer_ca : bool;
  mutable xer_ov : bool;
  mutable xer_so : bool;
  mutable pc : int;
  mutable msr : int;
  mutable srr0 : int;
  mutable srr1 : int;
  mutable dar : int;
  mutable dsisr : int;
  mutable sprg0 : int;
  mutable sprg1 : int;
}

let create () =
  { gpr = Array.make 32 0; cr = 0; lr = 0; ctr = 0; xer_ca = false;
    xer_ov = false; xer_so = false; pc = 0; msr = Msr.ee; srr0 = 0; srr1 = 0;
    dar = 0; dsisr = 0; sprg0 = 0; sprg1 = 0 }

let copy t = { t with gpr = Array.copy t.gpr }

(** Overwrite every register of [dst] with [src]'s, in place: restoring
    a snapshot into a live machine that other structures hold. *)
let blit ~src ~dst =
  Array.blit src.gpr 0 dst.gpr 0 32;
  dst.cr <- src.cr;
  dst.lr <- src.lr;
  dst.ctr <- src.ctr;
  dst.xer_ca <- src.xer_ca;
  dst.xer_ov <- src.xer_ov;
  dst.xer_so <- src.xer_so;
  dst.pc <- src.pc;
  dst.msr <- src.msr;
  dst.srr0 <- src.srr0;
  dst.srr1 <- src.srr1;
  dst.dar <- src.dar;
  dst.dsisr <- src.dsisr;
  dst.sprg0 <- src.sprg0;
  dst.sprg1 <- src.sprg1

(** [get_crf t f] is the 4-bit value of condition field [f] (LT GT EQ SO
    from most to least significant). *)
let get_crf t f = (t.cr lsr (4 * (7 - f))) land 0xF

let set_crf t f v =
  let shift = 4 * (7 - f) in
  t.cr <- t.cr land lnot (0xF lsl shift) lor ((v land 0xF) lsl shift)

(** [get_crb t b] is condition register bit [b] (0 = MSB of CR0). *)
let get_crb t b = (t.cr lsr (31 - b)) land 1

let set_crb t b v =
  let shift = 31 - b in
  t.cr <- t.cr land lnot (1 lsl shift) lor ((v land 1) lsl shift)

let get_xer t =
  (if t.xer_so then 0x8000_0000 else 0)
  lor (if t.xer_ov then 0x4000_0000 else 0)
  lor if t.xer_ca then 0x2000_0000 else 0

let set_xer t v =
  t.xer_so <- v land 0x8000_0000 <> 0;
  t.xer_ov <- v land 0x4000_0000 <> 0;
  t.xer_ca <- v land 0x2000_0000 <> 0

let get_spr t : Insn.spr -> int = function
  | XER -> get_xer t
  | LR -> t.lr
  | CTR -> t.ctr
  | SRR0 -> t.srr0
  | SRR1 -> t.srr1
  | DAR -> t.dar
  | DSISR -> t.dsisr
  | SPRG0 -> t.sprg0
  | SPRG1 -> t.sprg1

let set_spr t (spr : Insn.spr) v =
  let v = v land mask32 in
  match spr with
  | XER -> set_xer t v
  | LR -> t.lr <- v
  | CTR -> t.ctr <- v
  | SRR0 -> t.srr0 <- v
  | SRR1 -> t.srr1 <- v
  | DAR -> t.dar <- v
  | DSISR -> t.dsisr <- v
  | SPRG0 -> t.sprg0 <- v
  | SPRG1 -> t.sprg1 <- v

(** Architected-state equality, used by the differential tests: DAISY
    execution must leave exactly the state the reference interpreter
    leaves. *)
let equal a b =
  a.gpr = b.gpr && a.cr = b.cr && a.lr = b.lr && a.ctr = b.ctr
  && a.xer_ca = b.xer_ca && a.xer_ov = b.xer_ov && a.xer_so = b.xer_so
  && a.msr = b.msr

let pp ppf t =
  for i = 0 to 31 do
    if i mod 4 = 0 then Format.fprintf ppf "@\n";
    Format.fprintf ppf "r%-2d=%08x " i t.gpr.(i)
  done;
  Format.fprintf ppf "@\ncr=%08x lr=%08x ctr=%08x xer=%08x pc=%08x msr=%04x"
    t.cr t.lr t.ctr (get_xer t) t.pc t.msr
