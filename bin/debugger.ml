(* A minimal interactive debugger for the DAISY VMM.

   Steps execution VLIW-by-VLIW (through the translated code, via the
   fuel mechanism and Monitor.resume_pc) or instruction-by-instruction
   (through the VMM's interpreter), printing the per-step delta of every
   Monitor statistic — a console view of what the telemetry layer
   records.

     usage: debugger [WORKLOAD]        (default: wc)

   Commands:
     s [N]      step N tree VLIWs (default 1) through translated code
     i [N]      interpret N base instructions (default 1)
     r          print architected registers
     x ADDR [N] dump N memory words at ADDR (hex accepted)
     st         print cumulative statistics
     c          run to completion
     l          list workloads
     w NAME     load workload NAME (resets the machine)
     q          quit *)

module Monitor = Vmm.Monitor

type session = {
  vmm : Monitor.t;
  mem : Ppc.Mem.t;
  name : string;
  mutable pc : int;
  mutable status : [ `Running | `Exited of int option ];
}

let load name =
  let w = Workloads.Registry.by_name name in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Monitor.create mem in
  Printf.printf "loaded %s, entry 0x%08x\n%!" w.name entry;
  { vmm; mem; name = w.name; pc = entry; status = `Running }

let snapshot (s : Monitor.stats) = { s with vliws = s.vliws }

(* Every row of the VMM's counter table that moved since [since], as
   [name +delta (now value)]; since [fresh_stats], the cumulative view. *)
let print_delta ~since (s : Monitor.stats) =
  List.iter
    (fun (r : int Monitor.row) ->
      let v0 = r.get since and v1 = r.get s in
      if v1 <> v0 then
        Printf.printf "  %-24s +%d (now %d)\n" r.name (v1 - v0) v1)
    Monitor.counters;
  List.iter
    (fun (r : float Monitor.row) ->
      let v0 = r.get since and v1 = r.get s in
      if v1 <> v0 then
        Printf.printf "  %-24s +%.6f (now %.6f)\n" r.name (v1 -. v0) v1)
    Monitor.timings

let print_regs s =
  let m = s.vmm.Monitor.st.m in
  Printf.printf "pc   0x%08x  lr  0x%08x  ctr 0x%08x  cr 0x%08x\n" s.pc m.lr
    m.ctr m.cr;
  Printf.printf "msr  0x%08x  xer ca=%b ov=%b so=%b\n" m.msr m.xer_ca m.xer_ov
    m.xer_so;
  for row = 0 to 7 do
    for col = 0 to 3 do
      let r = (row * 4) + col in
      Printf.printf "r%-2d 0x%08x  " r m.gpr.(r)
    done;
    print_newline ()
  done

let exited s code =
  s.status <- `Exited code;
  (match code with
  | Some c -> Printf.printf "program exited with code %d\n" c
  | None -> Printf.printf "program ran out of fuel\n")

(* Execute [n] tree VLIWs from the current pc.  Fuel semantics: the VMM
   spends one unit per VLIW *before* executing it and raises when the
   tank hits zero, so a budget of n+1 executes exactly n VLIWs and
   leaves [resume_pc] at the next precise boundary. *)
let step s n =
  match s.status with
  | `Exited _ -> Printf.printf "program has exited; use w to reload\n"
  | `Running -> (
    let before = snapshot s.vmm.stats in
    match Monitor.run s.vmm ~entry:s.pc ~fuel:(n + 1) with
    | Some _ as code -> exited s code
    | None ->
      s.pc <- s.vmm.resume_pc;
      Printf.printf "stopped at 0x%08x\n" s.pc;
      print_delta ~since:before s.vmm.stats)

(* Interpret [n] base instructions with the VMM's own interpreter. *)
let interp s n =
  match s.status with
  | `Exited _ -> Printf.printf "program has exited; use w to reload\n"
  | `Running -> (
    let m = s.vmm.st.m in
    Vliw.Vstate.clear_nonarch s.vmm.st;
    m.pc <- s.pc;
    try
      for _ = 1 to n do
        ignore (s.vmm.interp_step ());
        s.vmm.stats.interp_insns <- s.vmm.stats.interp_insns + 1
      done;
      s.pc <- m.pc;
      Printf.printf "stopped at 0x%08x\n" s.pc
    with Ppc.Mem.Halted code ->
      s.pc <- m.pc;
      exited s (Some code))

let continue_ s =
  match s.status with
  | `Exited _ -> Printf.printf "program has exited; use w to reload\n"
  | `Running ->
    let before = snapshot s.vmm.stats in
    let code = Monitor.run s.vmm ~entry:s.pc ~fuel:max_int in
    exited s code;
    print_delta ~since:before s.vmm.stats

let dump s addr n =
  for i = 0 to n - 1 do
    let a = addr + (4 * i) in
    match Ppc.Mem.load32 s.mem a with
    | v -> Printf.printf "0x%08x: 0x%08x\n" a v
    | exception _ -> Printf.printf "0x%08x: <fault>\n" a
  done

let int_arg default = function
  | [] -> Some default
  | [ a ] -> int_of_string_opt a
  | _ -> None

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "wc" in
  let s = ref (load name) in
  let quit = ref false in
  while not !quit do
    Printf.printf "(daisy-dbg %s @ 0x%08x) %!" !s.name !s.pc;
    match input_line stdin with
    | exception End_of_file -> quit := true
    | line -> (
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun t -> t <> "")
      with
      | [] -> ()
      | cmd :: args -> (
        match (cmd, args) with
        | "q", _ | "quit", _ -> quit := true
        | "s", rest -> (
          match int_arg 1 rest with
          | Some n when n > 0 -> step !s n
          | _ -> Printf.printf "usage: s [N]\n")
        | "i", rest -> (
          match int_arg 1 rest with
          | Some n when n > 0 -> interp !s n
          | _ -> Printf.printf "usage: i [N]\n")
        | "r", _ -> print_regs !s
        | "st", _ -> print_delta ~since:(Monitor.fresh_stats ()) !s.vmm.stats
        | "c", _ -> continue_ !s
        | "x", addr :: rest -> (
          match (int_of_string_opt addr, int_arg 4 rest) with
          | Some a, Some n when n > 0 -> dump !s a n
          | _ -> Printf.printf "usage: x ADDR [N]   (0x... accepted)\n")
        | "x", [] -> Printf.printf "usage: x ADDR [N]\n"
        | "l", _ ->
          List.iter
            (fun (w : Workloads.Wl.t) ->
              Printf.printf "  %-10s %s\n" w.name w.description)
            Workloads.Registry.all
        | "w", [ n ] -> (
          match load n with
          | s' -> s := s'
          | exception Invalid_argument msg -> Printf.printf "%s\n" msg)
        | "w", _ -> Printf.printf "usage: w NAME\n"
        | _ ->
          Printf.printf
            "commands: s [N] | i [N] | r | x ADDR [N] | st | c | l | w NAME \
             | q\n"))
  done
