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
  cycles_infinite : int;   (** VLIWs plus interpreted instructions *)
  cycles_finite : int;     (** plus the cache hierarchy's stall cycles *)
  ilp_inf : float;         (** pathlength reduction, infinite cache *)
  ilp_fin : float;
  miss_l0d : float;        (** miss rates (Figure 5.2) *)
  miss_l0i : float;
  miss_joint : float;
  stats : Monitor.stats;   (** every VMM counter, read by name *)
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

(* A delivered interrupt's only architected trace is the mini OS's
   increment of its counter word, so that word must read exactly the
   reference's value plus the interrupts the VMM delivered (mod 2^32);
   the rest of memory must be identical. *)
let mem_equal ~interrupts (r : Bytes.t) (d : Bytes.t) =
  let addr = Workloads.Wl.interrupt_count_addr in
  if interrupts = 0 || addr + 4 > Bytes.length r then Bytes.equal r d
  else
    let counted = Bytes.get_int32_be r addr in
    let rest = Bytes.copy d in
    Bytes.set_int32_be rest addr counted;
    Int32.equal (Bytes.get_int32_be d addr)
      (Int32.add counted (Int32.of_int interrupts))
    && Bytes.equal r rest

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

(** [run ?params ?hierarchy ?instrument ?prepare ?tcache_dir ?tcache_io
    w] executes [w] under DAISY and returns the full set of
    measurements.  [hierarchy] is the finite-cache model the monitor
    probes ({!Monitor.create}).  [instrument] is called with the
    freshly-created VMM before execution starts, so components can
    subscribe ({!Monitor.on_event}).  [prepare] runs after
    instrumentation and may override the start point: returning
    [Some (entry, fuel)] makes the run continue from a restored mid-run
    state (checkpoint resume) instead of the workload's entry — the
    reference run is unaffected, so the differential verification at
    the end still checks the *complete* execution's architected
    effects.  [tcache_dir] enables the persistent translation cache
    there; [tcache_io] overrides its storage backend (the chaos
    harnesses inject faults through it).  Raises {!Mismatch} if the
    translated execution diverges from the reference interpreter in any
    observable way. *)
let run ?(params = Params.default) ?hierarchy ?instrument ?prepare
    ?tcache_dir ?tcache_io (w : Workloads.Wl.t) =
  let rcode, rst, rmem, it = reference w in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Monitor.create ~params ?hierarchy ?tcache_dir ?tcache_io mem in
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
    if
      not
        (mem_equal ~interrupts:vmm.stats.external_interrupts rmem.bytes
           mem.bytes)
    then
      raise (Mismatch (w.name ^ ": memory diverged"));
    if Mem.output rmem <> Mem.output mem then
      raise (Mismatch (w.name ^ ": console output diverged"))
  end;
  let s = vmm.stats in
  let cycles_inf = s.vliws + s.interp_insns in
  let cycles_fin = cycles_inf + s.cache_stalls in
  let miss_rate level =
    match hierarchy with
    | Some h -> Memsys.Cache.miss_rate (level h)
    | None -> 0.0
  in
  { name = w.name;
    exit_code = (if verified then dcode else None);
    base_insns = it.icount;
    static_insns = Interp.static_touched it;
    cycles_infinite = cycles_inf;
    cycles_finite = cycles_fin;
    ilp_inf = float_of_int it.icount /. float_of_int (max 1 cycles_inf);
    ilp_fin = float_of_int it.icount /. float_of_int (max 1 cycles_fin);
    miss_l0d = miss_rate Memsys.Hierarchy.l0d;
    miss_l0i = miss_rate Memsys.Hierarchy.l0i;
    miss_joint = miss_rate Memsys.Hierarchy.joint;
    stats = s;
    totals = vmm.tr.totals;
    code_bytes = vmm.tr.totals.code_bytes;
    pages_translated = vmm.tr.totals.pages;
    insns_translated = vmm.tr.totals.insns;
    console = Mem.output mem }
