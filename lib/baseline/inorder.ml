(* A simple in-order superscalar timing model standing in for the
   PowerPC 604E of Table 5.3: 2-wide sustained in-order issue (one
   memory operation and one branch per cycle), a register scoreboard, a
   2-bit branch predictor with a misprediction penalty and a taken-
   branch fetch bubble, and its own cache hierarchy.  Only relative
   magnitudes matter: the paper reports a mean of 0.7 sustained IPC for
   these benchmarks on the 604E; this model lands near 1. *)

module Crack = Translator.Crack
module Res = Translator.Res
open Ppc

type result = {
  insns : int;
  cycles : int;
  ipc : float;
  mispredicts : int;
}

let issue_width = 2
let mem_per_cycle = 1
let mispredict_penalty = 5
let load_latency = 3
let taken_branch_bubble = 1
    (* taken branches redirect fetch: even predicted-taken branches cost
       a fetch bubble on this class of machine *)

let caches () =
  Memsys.Hierarchy.
    { name = "604e";
      ipath =
        [ { cache = Memsys.Cache.create ~name:"I" ~size:(16 * 1024) ~assoc:4 ~line:32;
            latency = 0 } ];
      dpath =
        [ { cache = Memsys.Cache.create ~name:"D" ~size:(16 * 1024) ~assoc:4 ~line:32;
            latency = 0 } ];
      shared =
        [ { cache = Memsys.Cache.create ~name:"L2" ~size:(512 * 1024) ~assoc:4 ~line:64;
            latency = 8 } ];
      mem_latency = 50 }

let operand_res : Crack.operand -> int option = function
  | Gpr i -> Some (Res.gpr i)
  | Lr -> Some Res.lr
  | Ctr -> Some Res.ctr
  | Zero | TmpG _ -> None

let operand_value (st : Machine.t) : Crack.operand -> int = function
  | Gpr i -> st.gpr.(i)
  | Lr -> st.lr
  | Ctr -> st.ctr
  | Zero | TmpG _ -> 0

(** [run w] replays [w]'s trace through the in-order pipeline model. *)
let run (w : Workloads.Wl.t) =
  let mem, entry = Workloads.Wl.instantiate w in
  let st = Machine.create () in
  st.pc <- entry;
  let it = Interp.create st mem in
  let h = caches () in
  let ready = Array.make Res.count 0 in
  let cycle = ref 1 and issued = ref 0 and mem_issued = ref 0 and br_issued = ref 0 in
  let mispredicts = ref 0 in
  let predictor : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let next_cycle () =
    incr cycle;
    issued := 0;
    mem_issued := 0;
    br_issued := 0
  in
  let advance_to c =
    if c > !cycle then (
      cycle := c;
      issued := 0;
      mem_issued := 0;
      br_issued := 0)
  in
  let rec go fuel =
    if fuel > 0 then begin
      let pc = st.pc in
      match Mem.fetch mem pc with
      | exception Mem.Data_fault _ -> (
        try ignore (Interp.step it) with Mem.Halted _ -> ())
      | word ->
        let insn = Decode.decode word in
        (* instruction fetch *)
        let istall, _ = Memsys.Hierarchy.access h I pc 4 in
        if istall > 0 then advance_to (!cycle + istall);
        (* decode/crack for dependence modelling *)
        let prims, is_branch, is_cond =
          match insn with
          | None -> ([], false, false)
          | Some i ->
            let { Crack.prims; control } = Crack.crack pc i in
            let br, cond =
              match control with
              | Crack.Fallthru -> (false, false)
              | Jump _ | TrapC _ -> (true, false)
              | CondJump _ -> (true, true)
            in
            (prims, br, cond)
        in
        (* operand readiness *)
        let t = ref !cycle in
        let mem_ops = ref 0 in
        List.iter
          (fun prim ->
            let sh = Crack.shape prim in
            if sh.mem <> `No then incr mem_ops;
            List.iter
              (fun o -> match operand_res o with
                | Some r -> t := max !t ready.(r)
                | None -> ())
              sh.srcs_g;
            List.iter
              (fun (c : Crack.crf_operand) ->
                match c with
                | Crf f -> t := max !t ready.(Res.crf f)
                | TmpC _ -> ())
              sh.srcs_c;
            if sh.r_ca then t := max !t ready.(Res.ca);
            if sh.serial then t := max !t ready.(Res.slow))
          prims;
        advance_to !t;
        (* issue-slot constraints *)
        let needed = max 1 (List.length prims) in
        if
          !issued + needed > issue_width
          || !mem_issued + !mem_ops > mem_per_cycle
          || (is_branch && !br_issued >= 1)
        then next_cycle ();
        issued := !issued + needed;
        mem_issued := !mem_issued + !mem_ops;
        if is_branch then incr br_issued;
        (* execute architecturally *)
        ignore (Interp.step it);
        (* latencies and write-back *)
        let completion = ref (!cycle + 1) in
        List.iter
          (fun prim ->
            let sh = Crack.shape prim in
            (match prim with
            | Crack.PLoad { w = lw; base; off; _ } ->
              let o =
                match off with
                | Crack.OffImm i -> i
                | OffReg r -> operand_value st r
              in
              let addr = Interp.u32 (operand_value st base + o) in
              if not (Mem.is_mmio addr) then (
                let dstall, _ =
                  Memsys.Hierarchy.access h D addr (Mem.width_bytes lw)
                in
                completion := max !completion (!cycle + load_latency + dstall))
            | Crack.PStore { w = sw; base; off; _ } ->
              let o =
                match off with
                | Crack.OffImm i -> i
                | OffReg r -> operand_value st r
              in
              let addr = Interp.u32 (operand_value st base + o) in
              if not (Mem.is_mmio addr) then
                ignore (Memsys.Hierarchy.access h D addr (Mem.width_bytes sw))
            | _ -> ());
            (match sh.dst_g with
            | Some o -> (
              match operand_res o with
              | Some r -> ready.(r) <- !completion
              | None -> ())
            | None -> ());
            (match sh.dst_c with
            | Some (Crack.Crf f) -> ready.(Res.crf f) <- !completion
            | Some (TmpC _) | None -> ());
            if sh.w_ca then ready.(Res.ca) <- !completion;
            if sh.serial then ready.(Res.slow) <- !completion)
          prims;
        (* branch prediction and fetch redirect *)
        let taken = is_branch && st.pc <> Interp.u32 (pc + 4) in
        if is_cond then begin
          let ctr2 =
            match Hashtbl.find_opt predictor pc with Some c -> c | None -> 1
          in
          let predicted = ctr2 >= 2 in
          Hashtbl.replace predictor pc
            (if taken then min 3 (ctr2 + 1) else max 0 (ctr2 - 1));
          if predicted <> taken then begin
            incr mispredicts;
            advance_to (!cycle + mispredict_penalty)
          end
          else if taken then advance_to (!cycle + taken_branch_bubble)
        end
        else if taken then advance_to (!cycle + taken_branch_bubble);
        go (fuel - 1)
    end
  in
  (try go w.fuel with Mem.Halted _ -> ());
  { insns = it.icount;
    cycles = max 1 !cycle;
    ipc = float_of_int it.icount /. float_of_int (max 1 !cycle);
    mispredicts = !mispredicts }
