(* The S/390 front end for the DAISY translator and VMM. *)

let s390 : Translator.Frontend.t =
  { name = "s390";
    decode_crack =
      (fun mem pc ->
        match Decode.decode mem pc with
        | None -> None
        | Some (i, len) -> Some (Crack.crack pc len i, len));
    make_step =
      (fun st mem ->
        let it = Interp.create st mem in
        fun () -> Interp.step it);
    target_mask = Insn.amask land lnot 1 }
