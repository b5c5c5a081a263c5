(* Measured workload runs: the harness behind every experiment.

   A run executes a workload twice — once on the reference interpreter
   (the golden model, which also provides the dynamic/static instruction
   counts and reuse factors), once under DAISY with the cache hierarchy
   attached — verifies that both executions agree exactly, and collects
   the metrics the paper's tables and figures report. *)

module Translate = Translator.Translate
module Params = Translator.Params
open Ppc

type result = {
  name : string;
  exit_code : int option;
      (** [None] when the reference interpreter ran out of fuel: the run
          has no verification point *)
  base_insns : int;        (** dynamic base instructions (reference run) *)
  static_insns : int;      (** distinct static instructions executed *)
  vliws : int;             (** tree VLIWs executed *)
  interp_insns : int;      (** instructions run in VMM interpretation episodes *)
  cycles_infinite : int;
  cycles_finite : int;
  stall_cycles : int;
  ilp_inf : float;         (** pathlength reduction, infinite cache *)
  ilp_fin : float;
  loads : int;
  stores : int;
  load_misses : int;       (** first-level data misses on loads *)
  store_misses : int;
  imiss : int;             (** first-level instruction misses *)
  miss_l0d : float;        (** miss rates (Figure 5.2) *)
  miss_l0i : float;
  miss_joint : float;
  stats : Monitor.stats;
  totals : Translate.totals;
  code_bytes : int;        (** total translated code *)
  pages_translated : int;
  insns_translated : int;  (** translation work, incl. re-scheduling *)
  console : string;        (** guest console output of the DAISY run *)
}

(** Run the reference interpreter only. *)
let reference (w : Workloads.Wl.t) =
  let mem, entry = Workloads.Wl.instantiate w in
  let st = Machine.create () in
  st.pc <- entry;
  let it = Interp.create st mem in
  let code = Interp.run it ~fuel:w.fuel in
  (code, st, mem, it)

exception Mismatch of string

(* Memory comparison with an exclusion list: word [addrs] are blanked
   on both sides first.  Interrupt-injecting runs exclude the mini OS's
   interrupt counter — the only memory a transparent interrupt touches. *)
let mem_equal ~ignore_mem (a : Bytes.t) (b : Bytes.t) =
  match ignore_mem with
  | [] -> Bytes.equal a b
  | addrs ->
    let a = Bytes.copy a and b = Bytes.copy b in
    List.iter
      (fun addr ->
        if addr >= 0 && addr + 4 <= Bytes.length a then begin
          Bytes.set_int32_be a addr 0l;
          Bytes.set_int32_be b addr 0l
        end)
      addrs;
    Bytes.equal a b

(** Did the degradation ladder engage during this run?  True when any
    translator/execution fault was quarantined — the run still verified
    bit-exact against the reference interpreter, but it got there by
    (partially) falling back to interpretation. *)
let degraded (s : Monitor.stats) =
  s.translator_faults > 0 || s.exec_faults > 0 || s.quarantines > 0
  || s.interp_pinned > 0 || s.deadline_hits > 0 || s.shadow_divergences > 0
  (* a dropped checkpoint is a durability promise broken: correct
     answers, degraded run.  [tcache_degraded] deliberately does NOT
     count — the cache is best-effort, so overlay fallback is routine
     operation, surfaced through stats/HEALTH instead of the verdict. *)
  || s.storage_faults > 0

(** [run ?params ?hierarchy ?instrument ?prepare ?tcache_dir ?ignore_mem
    w] executes [w] under DAISY and returns the full set of
    measurements.  [instrument] is called with the freshly-created VMM
    before execution starts, so observability sinks can attach to
    {!Monitor.t.event_hook}.  [prepare] runs after instrumentation and
    may override the start point: returning [Some (entry, fuel)] makes
    the run continue from a restored mid-run state (checkpoint resume)
    instead of the workload's entry — the reference run is unaffected,
    so the differential verification at the end still checks the
    *complete* execution's architected effects.  [tcache_dir] enables
    the persistent translation cache there; [tcache_io] overrides its
    storage backend (the chaos harnesses inject faults through it).
    [ignore_mem] lists word
    addresses excluded from the differential memory comparison
    (interrupt counters under injected interrupts).  Raises {!Mismatch}
    if the translated execution diverges from the reference interpreter
    in any observable way. *)
let run ?(params = Params.default) ?hierarchy ?instrument ?prepare
    ?tcache_dir ?tcache_io ?(ignore_mem = []) (w : Workloads.Wl.t) =
  let rcode, rst, rmem, it = reference w in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Monitor.create ~params ?tcache_dir ?tcache_io mem in
  let load_misses = ref 0 and store_misses = ref 0 and imiss = ref 0 in
  let stall = ref 0 in
  (match hierarchy with
  | None -> ()
  | Some h ->
    vmm.fetch_hook <-
      Some
        (fun ~addr ~size ->
          let cycles, l1_hit = Memsys.Hierarchy.access h I addr (max 4 size) in
          if not l1_hit then incr imiss;
          stall := !stall + cycles);
    vmm.interp_fetch_hook <-
      Some
        (fun pc ->
          let cycles, l1_hit = Memsys.Hierarchy.access h I pc 4 in
          if not l1_hit then incr imiss;
          stall := !stall + cycles);
    vmm.access_hook <-
      Some
        (fun (a : Vliw.Exec.access) ->
          if Mem.is_mmio a.addr then ()
          else (
            let cycles, l1_hit = Memsys.Hierarchy.access h D a.addr a.bytes in
            if not l1_hit then
              if a.store then incr store_misses else incr load_misses;
            stall := !stall + cycles)));
  (match instrument with Some f -> f vmm | None -> ());
  let entry, fuel =
    match prepare with
    | None -> (entry, w.fuel * 2)
    | Some f -> (
      match f vmm with None -> (entry, w.fuel * 2) | Some ef -> ef)
  in
  let dcode = Monitor.run vmm ~entry ~fuel in
  (* When the reference ran out of fuel there is no verification point:
     the VMM's run (given twice the fuel) was cut elsewhere or halted
     later, so the two are incomparable.  Such a run reports no exit
     code, like one where both sides ran out; the fuzzer reports it as a
     hang. *)
  let verified = Option.is_some rcode in
  if verified && rcode <> dcode then
    raise (Mismatch (Printf.sprintf "%s: exit %s vs %s" w.name
                       (match rcode with Some c -> string_of_int c | None -> "fuel")
                       (match dcode with Some c -> string_of_int c | None -> "fuel")));
  if verified then begin
    if not (Machine.equal rst vmm.st.m) then
      raise (Mismatch (w.name ^ ": architected state diverged"));
    if not (mem_equal ~ignore_mem rmem.bytes mem.bytes) then
      raise (Mismatch (w.name ^ ": memory diverged"));
    if Mem.output rmem <> Mem.output mem then
      raise (Mismatch (w.name ^ ": console output diverged"))
  end;
  let s = vmm.stats in
  let cycles_inf = s.vliws + s.interp_insns in
  let cycles_fin = cycles_inf + !stall in
  let miss_rate (c : Memsys.Cache.t option) =
    match c with Some c -> Memsys.Cache.miss_rate c | None -> 0.0
  in
  let h0i, h0d, hj =
    match hierarchy with
    | None -> (None, None, None)
    | Some h ->
      ( Some (Memsys.Hierarchy.l0i h),
        Some (Memsys.Hierarchy.l0d h),
        Some (Memsys.Hierarchy.joint h) )
  in
  { name = w.name;
    exit_code = (if verified then dcode else None);
    base_insns = it.icount;
    static_insns = Interp.static_touched it;
    vliws = s.vliws;
    interp_insns = s.interp_insns;
    cycles_infinite = cycles_inf;
    cycles_finite = cycles_fin;
    stall_cycles = !stall;
    ilp_inf = float_of_int it.icount /. float_of_int (max 1 cycles_inf);
    ilp_fin = float_of_int it.icount /. float_of_int (max 1 cycles_fin);
    loads = s.loads;
    stores = s.stores;
    load_misses = !load_misses;
    store_misses = !store_misses;
    imiss = !imiss;
    miss_l0d = miss_rate h0d;
    miss_l0i = miss_rate h0i;
    miss_joint = miss_rate hj;
    stats = s;
    totals = vmm.tr.totals;
    code_bytes = vmm.tr.totals.code_bytes;
    pages_translated = vmm.tr.totals.pages;
    insns_translated = vmm.tr.totals.insns;
    console = Mem.output mem }
