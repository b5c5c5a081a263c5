(* Branch-profile collection, for the "traditional VLIW compiler"
   baseline: the paper's traditional compiler schedules with profile
   directed feedback, so we give our stand-in real per-branch taken
   frequencies gathered from a reference run. *)

open Ppc

(** [collect w] runs [w] on the interpreter and returns a table mapping
    each conditional-branch address to (times taken, times executed). *)
let collect (w : Workloads.Wl.t) =
  let mem, entry = Workloads.Wl.instantiate w in
  let st = Machine.create () in
  st.pc <- entry;
  let it = Interp.create st mem in
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let record pc taken =
    let t, n = match Hashtbl.find_opt tbl pc with Some x -> x | None -> (0, 0) in
    Hashtbl.replace tbl pc ((t + if taken then 1 else 0), n + 1)
  in
  let rec go fuel =
    if fuel > 0 then begin
      let pc = st.pc in
      let cond =
        match Decode.decode (Mem.fetch mem pc) with
        | Some (Bc (bo, _, _, _, _) | Bclr (bo, _, _) | Bcctr (bo, _, _)) ->
          not (Insn.Bo.ignores_cond bo && Insn.Bo.no_ctr_dec bo)
        | Some _ | None -> false
        | exception Mem.Data_fault _ -> false
      in
      match Interp.step it with
      | (_ : bool) ->
        if cond then record pc (st.pc <> Interp.u32 (pc + 4));
        go (fuel - 1)
      | exception Mem.Halted _ -> ()
    end
  in
  go w.fuel;
  tbl
