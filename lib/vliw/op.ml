(* RISC primitives of the migrant (VLIW) architecture.

   The migrant instruction set is a superset of the base architecture
   (Section 2.2 of the paper): the same integer operations, but over a
   64-register file with exception tags and carry extender bits, plus
   16 condition fields, speculative versions of every operation, and
   the commit/copy operations the translator uses to update architected
   state in original program order.

   Operand encoding ("locations"):
   - 0..31   architected GPRs (identical to base architecture r0..r31)
   - 32..63  non-architected GPRs (renaming pool)
   - 64      LR, 65 CTR (architected, but renameable into the GPR pool)
   - 66      the machine CA bit (as a carry source for [Adde])
   - [zero]  (-1) the constant 0 (used for the absent RA=0 base register)
   Condition-field locations are 0..15; 0..7 architected, 8..15 pool. *)

type loc = int

let zero : loc = -1
let lr_loc : loc = 64
let ctr_loc : loc = 65
let ca_loc : loc = 66

let is_nonarch_gpr l = l >= 32 && l < 64
let is_nonarch_cr l = l >= 8 && l < 16

(** Immediate-operand integer operations. *)
type ibin = IAdd | IAddc | IMul | IAnd | IOr | IXor

(** Offset operand of a memory access. *)
type off = OImm of int | OReg of loc

(** SPRs handled by the serialized in-order path. *)
type slow_spr = Xer | Srr0 | Srr1 | Dar | Dsisr | Sprg0 | Sprg1 | Msr

type t =
  | Bin of { op : Ppc.Insn.xo_op; rt : loc; ra : loc; rb : loc; ca : loc; spec : bool }
      (** [ca] is read only by [Adde]: the machine CA ([ca_loc]) or the
          extender bit of a renamed GPR. *)
  | BinI of { op : ibin; rt : loc; ra : loc; imm : int; spec : bool }
  | Logic of { op : Ppc.Insn.x_op; rt : loc; ra : loc; rb : loc; spec : bool }
  | Un of { op : Ppc.Insn.x1_op; rt : loc; ra : loc; spec : bool }
  | SrawiOp of { rt : loc; ra : loc; sh : int; spec : bool }
  | RlwinmOp of { rt : loc; ra : loc; sh : int; mb : int; me : int; spec : bool }
  | CmpOp of { signed : bool; crt : loc; ra : loc; rb : loc; spec : bool }
  | CmpIOp of { signed : bool; crt : loc; ra : loc; imm : int; spec : bool }
      (** compares also copy the machine SO bit into CR bit 3, exactly
          as the base architecture does *)
  | LoadOp of { w : Ppc.Insn.width; alg : bool; rt : loc; base : loc; off : off;
               spec : bool; passed : bool }
      (** [passed]: the load was moved above at least one program-order
          earlier store and needs the runtime alias check *)
  | StoreOp of { w : Ppc.Insn.width; rs : loc; base : loc; off : off }
  | CropOp of { op : Ppc.Insn.cr_op; bt : int; ba : int; bb : int; old : loc; spec : bool }
      (** [old] = location of the previous value of the target field for
          the read-modify-write ([zero] when the target is a fresh
          temporary whose other bits are dead); bit indices are over the
          16 fields, 0..63 *)
  | McrfOp of { dst : loc; src : loc; spec : bool }
  | MfcrOp of { rt : loc; srcs : loc array }  (** 8 field locations, cr0..cr7 *)
  | CrSetOp of { crt : loc; rs : loc; pos : int }
      (** field [crt] <- bits of [rs] at field position [pos] (0..7) *)
  | GetXer of { rt : loc }
  | SetXer of { rs : loc }
  | GetSpr of { rt : loc; spr : slow_spr }
  | SetSpr of { spr : slow_spr; rs : loc }
  | GetMsr of { rt : loc }
  | SetMsr of { rs : loc }
  | CommitG of { arch : int; src : loc }       (** architected GPR <- renamed *)
  | CommitCr of { arch : int; src : loc }      (** architected CR field <- renamed *)
  | CommitLr of { src : loc }
  | CommitCtr of { src : loc }
  | CommitCa of { src : loc }                  (** CA <- extender bit of [src] *)

(** Does this op occupy a memory slot (vs an ALU slot)? *)
let is_mem = function LoadOp _ | StoreOp _ -> true | _ -> false

let is_store = function StoreOp _ -> true | _ -> false
let is_load = function LoadOp _ -> true | _ -> false

(* Pool locations as bits of one int: bit [i] is r(32+i), its value,
   exception tag and carry extender bit together, and bit [32+j] is
   cr(8+j) with its tag.  Every other location has no bit. *)
let gpr_bit l = if is_nonarch_gpr l then 1 lsl (l - 32) else 0
let cr_bit l = if is_nonarch_cr l then 1 lsl (l + 24) else 0

let rec cr_bits (srcs : loc array) i acc =
  if i < 0 then acc else cr_bits srcs (i - 1) (acc lor cr_bit srcs.(i))

let off_bit = function OImm _ -> 0 | OReg r -> gpr_bit r

(** The pool locations [op] reads, as a mask of {!gpr_bit}s and
    {!cr_bit}s. *)
let pool_reads = function
  | Bin { op; ra; rb; ca; _ } ->
    gpr_bit ra lor gpr_bit rb
    lor (match op with Ppc.Insn.Adde -> gpr_bit ca | _ -> 0)
  | BinI { ra; _ } | Un { ra; _ } | SrawiOp { ra; _ } | RlwinmOp { ra; _ }
  | CmpIOp { ra; _ } ->
    gpr_bit ra
  | Logic { ra; rb; _ } | CmpOp { ra; rb; _ } -> gpr_bit ra lor gpr_bit rb
  | LoadOp { base; off; _ } -> gpr_bit base lor off_bit off
  | StoreOp { rs; base; off; _ } -> gpr_bit rs lor gpr_bit base lor off_bit off
  | CropOp { ba; bb; old; _ } -> cr_bit (ba / 4) lor cr_bit (bb / 4) lor cr_bit old
  | McrfOp { src; _ } | CommitCr { src; _ } -> cr_bit src
  | MfcrOp { srcs; _ } -> cr_bits srcs (Array.length srcs - 1) 0
  | CrSetOp { rs; _ } | SetXer { rs } | SetSpr { rs; _ } | SetMsr { rs } -> gpr_bit rs
  | CommitG { src; _ } | CommitLr { src } | CommitCtr { src } | CommitCa { src } ->
    gpr_bit src
  | GetXer _ | GetSpr _ | GetMsr _ -> 0

(** The pool locations [op] writes, as {!pool_reads} reads them. *)
let pool_writes = function
  | Bin { rt; _ } | BinI { rt; _ } | Logic { rt; _ } | Un { rt; _ }
  | SrawiOp { rt; _ } | RlwinmOp { rt; _ } | LoadOp { rt; _ } | MfcrOp { rt; _ }
  | GetXer { rt } | GetSpr { rt; _ } | GetMsr { rt } | CommitG { arch = rt; _ } ->
    gpr_bit rt
  | CmpOp { crt; _ } | CmpIOp { crt; _ } | CrSetOp { crt; _ }
  | McrfOp { dst = crt; _ } | CommitCr { arch = crt; _ } ->
    cr_bit crt
  | CropOp { bt; _ } -> cr_bit (bt / 4)
  | StoreOp _ | SetXer _ | SetSpr _ | SetMsr _ | CommitLr _ | CommitCtr _
  | CommitCa _ ->
    0

(* Stable small-integer codes for the persistent translation cache's
   binary codec (lib/tcache).  On-disk format: append new codes, never
   renumber, and bump the codec version when the shape changes.  The
   [*_of_code] direction returns [None] for unknown codes so a corrupt
   or newer-format entry decodes to a clean failure, not a bogus op. *)

let ibin_code = function
  | IAdd -> 0 | IAddc -> 1 | IMul -> 2 | IAnd -> 3 | IOr -> 4 | IXor -> 5

let ibin_of_code = function
  | 0 -> Some IAdd | 1 -> Some IAddc | 2 -> Some IMul | 3 -> Some IAnd
  | 4 -> Some IOr | 5 -> Some IXor | _ -> None

let spr_code = function
  | Xer -> 0 | Srr0 -> 1 | Srr1 -> 2 | Dar -> 3 | Dsisr -> 4 | Sprg0 -> 5
  | Sprg1 -> 6 | Msr -> 7

let spr_of_code = function
  | 0 -> Some Xer | 1 -> Some Srr0 | 2 -> Some Srr1 | 3 -> Some Dar
  | 4 -> Some Dsisr | 5 -> Some Sprg0 | 6 -> Some Sprg1 | 7 -> Some Msr
  | _ -> None

(** Structural equality (operands of [MfcrOp] are arrays, so the
    polymorphic compare is the right notion here). *)
let equal (a : t) (b : t) = a = b

let pp_loc ppf l =
  if l = zero then Format.pp_print_string ppf "0"
  else if l = lr_loc then Format.pp_print_string ppf "lr"
  else if l = ctr_loc then Format.pp_print_string ppf "ctr"
  else if l = ca_loc then Format.pp_print_string ppf "ca"
  else Format.fprintf ppf "r%d" l

let pp_off ppf = function
  | OImm i -> Format.fprintf ppf "%d" i
  | OReg r -> pp_loc ppf r

let ibin_name = function
  | IAdd -> "addi"
  | IAddc -> "addic"
  | IMul -> "muli"
  | IAnd -> "andi"
  | IOr -> "ori"
  | IXor -> "xori"

let spr_name = function
  | Xer -> "xer"
  | Srr0 -> "srr0"
  | Srr1 -> "srr1"
  | Dar -> "dar"
  | Dsisr -> "dsisr"
  | Sprg0 -> "sprg0"
  | Sprg1 -> "sprg1"
  | Msr -> "msr"

let pp ppf op =
  let f fmt = Format.fprintf ppf fmt in
  let sp spec = if spec then "s." else "" in
  match op with
  | Bin { op; rt; ra; rb; spec; _ } ->
    f "%s%s %a,%a,%a" (sp spec) (Ppc.Insn.xo_name op) pp_loc rt pp_loc ra pp_loc rb
  | BinI { op; rt; ra; imm; spec } ->
    f "%s%s %a,%a,%d" (sp spec) (ibin_name op) pp_loc rt pp_loc ra imm
  | Logic { op; rt; ra; rb; spec } ->
    f "%s%s %a,%a,%a" (sp spec) (Ppc.Insn.x_name op) pp_loc rt pp_loc ra pp_loc rb
  | Un { op; rt; ra; spec } ->
    f "%s%s %a,%a" (sp spec) (Ppc.Insn.x1_name op) pp_loc rt pp_loc ra
  | SrawiOp { rt; ra; sh; spec } -> f "%ssrawi %a,%a,%d" (sp spec) pp_loc rt pp_loc ra sh
  | RlwinmOp { rt; ra; sh; mb; me; spec } ->
    f "%srlwinm %a,%a,%d,%d,%d" (sp spec) pp_loc rt pp_loc ra sh mb me
  | CmpOp { signed; crt; ra; rb; _ } ->
    f "cmp%s cr%d,%a,%a" (if signed then "w" else "lw") crt pp_loc ra pp_loc rb
  | CmpIOp { signed; crt; ra; imm; _ } ->
    f "cmp%si cr%d,%a,%d" (if signed then "w" else "lw") crt pp_loc ra imm
  | LoadOp { w; alg; rt; base; off; spec; _ } ->
    f "%sl%c%s %a,%a(%a)" (sp spec) (Ppc.Insn.width_letter w)
      (if alg then "a" else "z") pp_loc rt pp_off off pp_loc base
  | StoreOp { w; rs; base; off } ->
    f "st%c %a,%a(%a)" (Ppc.Insn.width_letter w) pp_loc rs pp_off off pp_loc base
  | CropOp { op; bt; ba; bb; _ } -> f "%s %d,%d,%d" (Ppc.Insn.cr_op_name op) bt ba bb
  | McrfOp { dst; src; _ } -> f "mcrf cr%d,cr%d" dst src
  | MfcrOp { rt; _ } -> f "mfcr %a" pp_loc rt
  | CrSetOp { crt; rs; pos } -> f "crset cr%d,%a[%d]" crt pp_loc rs pos
  | GetXer { rt } -> f "mfxer %a" pp_loc rt
  | SetXer { rs } -> f "mtxer %a" pp_loc rs
  | GetSpr { rt; spr } -> f "mf%s %a" (spr_name spr) pp_loc rt
  | SetSpr { spr; rs } -> f "mt%s %a" (spr_name spr) pp_loc rs
  | GetMsr { rt } -> f "mfmsr %a" pp_loc rt
  | SetMsr { rs } -> f "mtmsr %a" pp_loc rs
  | CommitG { arch; src } -> f "r%d=%a" arch pp_loc src
  | CommitCr { arch; src } -> f "cr%d=cr%d" arch src
  | CommitLr { src } -> f "lr=%a" pp_loc src
  | CommitCtr { src } -> f "ctr=%a" pp_loc src
  | CommitCa { src } -> f "ca=ext(%a)" pp_loc src

let to_string op = Format.asprintf "%a" pp op
