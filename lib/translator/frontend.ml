(* Base-architecture front ends.

   DAISY is "dynamically architected": the same translator, scheduler,
   VLIW machine and VMM serve any base architecture whose state fits the
   migrant superset (Section 2.2).  A front end packages everything that
   is ISA-specific:

   - decoding + cracking one instruction at an address (with its byte
     length — S/390 instructions are 2/4/6 bytes);
   - an interpreter step over the shared architected state, for the
     VMM's interpretation episodes, which also classifies the stepped
     instruction: does it end an episode (calls, indirect and system
     instructions)?

   The PowerPC front end lives here; {!S390.Frontend.s390} provides the
   second architecture. *)

type t = {
  name : string;
  decode_crack : Ppc.Mem.t -> int -> (Crack.cracked * int) option;
      (** decode and crack the instruction at an address; returns the
          primitives/control and the instruction length in bytes, or
          [None] if the bytes are not a valid instruction *)
  make_step : Ppc.Machine.t -> Ppc.Mem.t -> (unit -> bool);
      (** build an interpreter step function over the shared state; a
          step returns whether the instruction it stepped ends an
          interpretation episode (subroutine call, indirect branch,
          system instruction) *)
  target_mask : int;
      (** architected masking of indirect branch targets (PowerPC clears
          the low two bits; S/390 applies the address mask) *)
}

let ppc : t =
  { name = "ppc";
    decode_crack =
      (fun mem pc ->
        match Ppc.Mem.fetch mem pc with
        | exception Ppc.Mem.Data_fault _ -> None
        | word -> (
          match Ppc.Decode.decode word with
          | None -> None
          | Some i -> Some (Crack.crack pc i, 4)));
    make_step =
      (fun st mem ->
        let it = Ppc.Interp.create st mem in
        fun () -> Ppc.Interp.step it);
    target_mask = 0xFFFF_FFFC }
