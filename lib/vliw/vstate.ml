(* Runtime state of the VLIW machine.

   The architected base state (GPRs 0..31, CR fields 0..7, LR, CTR, XER
   bits, MSR, the privileged SPRs) lives directly in a {!Ppc.Machine.t},
   so the VMM can hand the same state to the reference interpreter for
   its interpretation episodes without copying.  On top of it sit the
   non-architected resources: 32 extra GPRs each with an exception tag
   and a carry extender bit, and 8 extra condition fields.  None of the
   extra state is visible to the base architecture, and — because
   commits are in order — none of it needs saving across interrupts. *)

(** Exception tag of a non-architected register (Section 2.1): set
    instead of faulting when a speculative operation goes wrong. *)
type tag =
  | Clean
  | Tfault of int  (** speculative load faulted at this address *)
  | Tmmio          (** speculative load hit I/O space; deferred *)

(* The tag arrays hold tags coded as immediate ints: 0 is [Clean], 1 is
   [Tmmio], and [(addr lsl 2) lor 2] is [Tfault addr].  Storing a boxed
   [tag] into an array goes through the write barrier ([caml_modify]),
   even for the constant [Clean]; the staged executor writes a tag for
   nearly every pool result, so it keeps them as plain words. *)

let code_of_tag = function Clean -> 0 | Tmmio -> 1 | Tfault a -> (a lsl 2) lor 2

let tag_of_code c = if c = 0 then Clean else if c = 1 then Tmmio else Tfault (c asr 2)

type t = {
  m : Ppc.Machine.t;       (** architected base state *)
  hi : int array;          (** r32..r63 *)
  ext : bool array;        (** carry extender bits of r32..r63 *)
  tags : int array;        (** coded exception tags of r32..r63 *)
  crhi : int array;        (** cr8..cr15 (4-bit fields) *)
  crtags : int array;      (** coded exception tags of cr8..cr15 *)
}

let create m =
  { m; hi = Array.make 32 0; ext = Array.make 32 false;
    tags = Array.make 32 0; crhi = Array.make 8 0; crtags = Array.make 8 0 }

(** Value of GPR-space location [l] with its tag ([Op.zero] reads 0;
    architected locations are always clean). *)
let get t (l : Op.loc) =
  if l = Op.zero then (0, Clean)
  else if l < 32 then (t.m.gpr.(l), Clean)
  else if l < 64 then (t.hi.(l - 32), tag_of_code t.tags.(l - 32))
  else if l = Op.lr_loc then (t.m.lr, Clean)
  else if l = Op.ctr_loc then (t.m.ctr, Clean)
  else invalid_arg "Vstate.get"

(** Carry bit at location [l]: the machine CA ([Op.ca_loc]) or the
    extender bit of a renamed register. *)
let get_ca t (l : Op.loc) =
  if l = Op.ca_loc then t.m.xer_ca
  else if l >= 32 && l < 64 then t.ext.(l - 32)
  else invalid_arg "Vstate.get_ca"

(** Condition field at location [l] (0..15), with its tag. *)
let get_cr_tagged t (l : Op.loc) =
  if l < 8 then (Ppc.Machine.get_crf t.m l, Clean)
  else (t.crhi.(l - 8), tag_of_code t.crtags.(l - 8))

(* The destinations the setters take.  Each refuses every other
   location with its own [Invalid_argument]; the engines raise the same
   at the op that names such a destination, before any write of its
   VLIW applies ({!Exec.check_write}). *)

(** [set_gpr] takes r0..r63, LR and CTR. *)
let gpr_dest (l : Op.loc) = (0 <= l && l < 64) || l = Op.lr_loc || l = Op.ctr_loc

(** [set_cr] takes cr0..cr15. *)
let cr_dest (l : Op.loc) = 0 <= l && l < 16

let refuse_gpr () = invalid_arg "Vstate.set_gpr"
let refuse_tag () = invalid_arg "Vstate.set_tag"
let refuse_cr () = invalid_arg "Vstate.set_cr"

let set_gpr t (l : Op.loc) v =
  if l < 0 then refuse_gpr ()
  else if l < 32 then t.m.gpr.(l) <- v
  else if l < 64 then (
    t.hi.(l - 32) <- v;
    t.tags.(l - 32) <- 0)
  else if l = Op.lr_loc then t.m.lr <- v
  else if l = Op.ctr_loc then t.m.ctr <- v
  else refuse_gpr ()

let set_ext t (l : Op.loc) b =
  if l >= 32 && l < 64 then t.ext.(l - 32) <- b
  else invalid_arg "Vstate.set_ext"

let set_tag t (l : Op.loc) tag =
  if Op.is_nonarch_gpr l then t.tags.(l - 32) <- code_of_tag tag
  else refuse_tag ()

let set_cr t (l : Op.loc) v =
  if l < 0 then refuse_cr ()
  else if l < 8 then Ppc.Machine.set_crf t.m l v
  else if l < 16 then (
    t.crhi.(l - 8) <- v land 0xF;
    t.crtags.(l - 8) <- 0)
  else refuse_cr ()

let set_cr_tag t (l : Op.loc) tag =
  if l >= 8 && l < 16 then t.crtags.(l - 8) <- code_of_tag tag
  else invalid_arg "Vstate.set_cr_tag"

(** Reset all non-architected state: pool values, extender bits, tags
    and pool condition fields.  Recovery runs it before interpreting, so
    tags and pool values never survive recovery, and nothing a
    rolled-back VLIW wrote into the pool in place is left behind. *)
let clear_nonarch t =
  Array.fill t.hi 0 32 0;
  Array.fill t.ext 0 32 false;
  Array.fill t.tags 0 32 0;
  Array.fill t.crhi 0 8 0;
  Array.fill t.crtags 0 8 0
