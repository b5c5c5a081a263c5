(* Sampled shadow verification: continuous differential testing in
   production.

   The fuzzer (lib/fault) verifies translations before a release; this
   module verifies them *while they run*.  A seeded sampler picks a
   fraction of committed VLIW packets; for each, the architected state
   is snapshotted at the packet's precise entry, the packet runs
   normally, and at commit the reference interpreter replays the same
   base instructions over the snapshot.  If the interpreter cannot
   reproduce the committed architected effects — registers, memory,
   console, I/O sequence state — the packet's translation is wrong in a
   way nothing else caught (a silently corrupted branch sense, a bad
   datapath that still produces plausible values).

   On divergence the guard

   - records the page as an on-disk reproducer in the fuzzer's format
     (so `daisy fuzz --replay` can re-run it standalone; the file names
     a registry workload, whose data the page alone would not carry),
   - repairs architected state back to the pre-packet snapshot,
   - takes a ladder strike on the page (quarantine -> interpretation),
   - and resumes at the packet's entry pc by interpretation — the run
     completes correctly, degraded (exit 4), exactly like any other
     contained fault.

   Sampling is the paper's precise-exception argument turned into an
   operating policy: because every committed boundary is a precise
   base-architecture state, any single packet can be re-derived from
   its predecessor state by the golden model, at any time, at a cost
   proportional to the sampling rate. *)

module Monitor = Vmm.Monitor
open Ppc

type config = {
  sample : float;       (** fraction of committed packets to verify *)
  seed : int;           (** sampler seed (deterministic runs) *)
  out_dir : string option;  (** where divergence reproducers go *)
  max_steps : int;      (** replay step bound per packet *)
}

let default =
  { sample = 0.01; seed = 0; out_dir = None; max_steps = 4096 }

(* The pre-packet snapshot: everything the reference interpreter needs
   to replay the packet, and everything repair needs to undo it. *)
type snap = {
  pc0 : int;
  machine : Machine.t;
  bytes : Bytes.t;
  seq : int;
  console : string;
}

type t = {
  cfg : config;
  rng : Random.State.t;
  vmm : Monitor.t;
  workload : string option;  (** the registry workload being run *)
  mutable armed : snap option;
}

let take_snap (vmm : Monitor.t) ~pc =
  { pc0 = pc; machine = Machine.copy vmm.st.m; bytes = Bytes.copy vmm.mem.bytes;
    seq = vmm.mem.seq; console = Mem.output vmm.mem }

(* Every packet re-arms, sampled or not, so a packet that rolled back
   or faulted leaves nothing armed for the next one's commit. *)
let arm t ~pc =
  t.armed <-
    (if t.cfg.sample >= 1.0 || Random.State.float t.rng 1.0 < t.cfg.sample
     then Some (take_snap t.vmm ~pc)
     else None)

(* Does the shadow state match the committed state?  Cheap scalar
   comparisons first.  Two deliberate omissions relative to
   [Machine.equal]:

   - pc: the committed machine's pc is stale during translated
     execution, so the pc condition lives with the caller (see
     [commit]): the reference must have *visited* the boundary pc, but
     the state match itself ignores pc — the scheduler may commit an
     instruction from at-or-after the boundary early (hoisted across a
     join) when re-executing it from the boundary is idempotent, so
     the committed state can equal the reference state a few
     instructions *past* the boundary.
   - flags (CR, CA, OV, SO): the datapath commits *dead* flag writes
     from speculative ops eagerly when the destination is architected
     (Vliw.Exec.carry_writes / cr_writes), so the boundary flag state
     can mix in values from instructions past the boundary that no
     sequential replay can reproduce.  A dead flag is architecturally
     unobservable; a *live* wrong flag surfaces either as a wrong
     branch (the reference path never visits the bogus boundary pc) or
     as a wrong GPR (adde, mfcr), both of which this check does see. *)
let matches (t : t) (sm : Machine.t) (smem : Mem.t) =
  let m = t.vmm.st.m in
  sm.lr = m.lr && sm.ctr = m.ctr && sm.msr = m.msr
  && sm.gpr = m.gpr
  && smem.seq = t.vmm.mem.seq
  && Buffer.length smem.out = Buffer.length t.vmm.mem.out
  && Mem.output smem = Mem.output t.vmm.mem
  && Bytes.equal smem.bytes t.vmm.mem.bytes

let write_reproducer t snap ~base ~reason =
  match t.cfg.out_dir with
  | None -> None
  | Some dir ->
    let psize = t.vmm.tr.params.page_size in
    let nwords = psize / 4 in
    let slots =
      Array.init nwords (fun i ->
          Fault.Fuzz.Raw (Int32.to_int (Bytes.get_int32_be snap.bytes (base + 4 * i))
                          land 0xFFFF_FFFF))
    in
    Some
      (Fault.Fuzz.write_reproducer ?workload:t.workload ~dir ~seed:t.cfg.seed
         ~index:base ~fuel:200_000
         ~message:
           (Printf.sprintf "shadow divergence at pc 0x%X: %s" snap.pc0 reason)
         slots)

(* Put the architected state back exactly as it was when the packet was
   armed.  Raw blits: repair is not guest execution, so no store hooks
   fire (the next checkpoint still captures the page because the
   original stores marked it dirty). *)
let repair (t : t) snap =
  let vmm = t.vmm in
  Machine.blit ~src:snap.machine ~dst:vmm.st.m;
  Bytes.blit snap.bytes 0 vmm.mem.bytes 0 (Bytes.length snap.bytes);
  vmm.mem.seq <- snap.seq;
  Buffer.clear vmm.mem.out;
  Buffer.add_string vmm.mem.out snap.console

let diverged t snap ~reason =
  let vmm = t.vmm in
  let base = Translator.Translate.page_base vmm.tr snap.pc0 in
  vmm.stats.shadow_divergences <- vmm.stats.shadow_divergences + 1;
  ignore (write_reproducer t snap ~base ~reason);
  Monitor.emit vmm (fun () ->
      Shadow_divergence
        { cycle = Monitor.now vmm; page = base; pc = snap.pc0; reason });
  repair t snap;
  Monitor.record_failure vmm base;
  Some snap.pc0

(** The commit check: replay the armed packet under the reference
    interpreter and compare architected effects.  [None] means the
    packet verified (or nothing was armed); [Some pc] means a
    divergence was found, state was repaired to the pre-packet
    snapshot, and the caller must resume at [pc] by interpretation. *)
let commit t ~next =
  match t.armed with
  | None -> None
  | Some snap -> (
    t.armed <- None;
    let vmm = t.vmm in
    vmm.stats.shadow_checked <- vmm.stats.shadow_checked + 1;
    let sm = Machine.copy snap.machine in
    sm.pc <- snap.pc0;
    let smem : Mem.t =
      { bytes = Bytes.copy snap.bytes; size = vmm.mem.size;
        out = Buffer.create (String.length snap.console + 64);
        seq = snap.seq; on_store = None }
    in
    Buffer.add_string smem.out snap.console;
    let step = vmm.fe.make_step sm smem in
    (* Check before every step: the packet may commit after zero or
       more interpreted instructions, and a committed path can pass
       through [next] mid-way — so a state match only counts once the
       reference has visited the boundary pc.  That visit is the
       soundness anchor against silently flipped branches: a wrong-path
       commit resumes at a pc the reference path never reaches, and no
       later state coincidence can hide it. *)
    let rec go steps ~visited =
      let visited = visited || sm.pc land lnot 1 = next land lnot 1 in
      if visited && matches t sm smem then None
      else if steps >= t.cfg.max_steps then
        diverged t snap
          ~reason:
            (Printf.sprintf "no state match within %d reference steps%s"
               t.cfg.max_steps
               (if visited then "" else
                  Printf.sprintf " (boundary pc 0x%X never reached)" next))
      else
        match step () with
        | (_ : bool) -> go (steps + 1) ~visited
        | exception Mem.Halted code ->
          diverged t snap
            ~reason:(Printf.sprintf "reference halted (%d) mid-packet" code)
        | exception exn ->
          diverged t snap
            ~reason:("reference raised " ^ Printexc.to_string exn)
    in
    go 0 ~visited:false)

(** Wire a shadow verifier into [vmm]'s arm and commit hooks.
    [workload] names the run; a registry workload's name goes into the
    reproducers. *)
let attach ?workload cfg (vmm : Monitor.t) =
  let workload =
    Option.bind workload (fun n ->
        List.find_map
          (fun (w : Workloads.Wl.t) -> if w.name = n then Some n else None)
          Workloads.Registry.all)
  in
  let t =
    { cfg; rng = Random.State.make [| cfg.seed; 0x5AD0 |]; vmm; workload;
      armed = None }
  in
  vmm.shadow_arm <- Some (fun ~pc -> arm t ~pc);
  vmm.shadow_commit <- Some (fun ~next -> commit t ~next);
  t
