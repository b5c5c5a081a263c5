(* Transparent external interrupts (Section 3.3).

   The compress workload runs under DAISY while a timer on the
   monitor's [boundary_hook] delivers an external interrupt at every
   500th VLIW boundary polled with interrupts enabled.  The mini OS's
   first-level handler (itself running as translated code) counts the
   interrupts and returns with rfi; after each rfi the VMM briefly
   interprets and re-enters translated code at a valid entry point,
   exactly as Section 3.4 prescribes.  The program's result must be
   unaffected.

     dune exec examples/interrupts.exe *)

let () =
  let w = Workloads.Registry.by_name "compress" in
  (* reference: no interrupts *)
  let rcode, _, _, _ = Vmm.Run.reference w in
  (* DAISY with the timer firing *)
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Vmm.Monitor.create mem in
  let polls = ref 0 in
  vmm.boundary_hook <-
    Some
      (fun () ->
        incr polls;
        !polls mod 500 = 0);
  let code = Vmm.Monitor.run vmm ~entry ~fuel:(w.fuel * 2) in
  let counted =
    Ppc.Mem.load32 mem (Workloads.Wl.table_base + 0xF00)
  in
  Format.printf "exit code: %s (undisturbed run: %s)@."
    (match code with Some c -> string_of_int c | None -> "-")
    (match rcode with Some c -> string_of_int c | None -> "-");
  Format.printf
    "external interrupts delivered: %d; handler (translated OS code) \
     counted: %d@."
    vmm.stats.external_interrupts counted;
  Format.printf "interpretation episodes after rfi: %d@."
    vmm.stats.interp_episodes;
  if code <> rcode || counted = 0 then exit 1
