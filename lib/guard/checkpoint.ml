(* Deterministic checkpoint/restore for long runs.

   DAISY's precise-exception discipline means that at every committed
   VLIW boundary the *base architecture's* state is complete and
   self-contained: registers, memory, pending-interrupt bookkeeping.
   Nothing about the translations needs saving — a restored run simply
   retranslates on demand from the restored memory image, and because
   console output and the exit code are architected effects they come
   out bit-identical whether or not the run was interrupted.

   A checkpoint directory holds a sequence of snapshot files

     ck-000000.dgck, ck-000001.dgck, ...

   written at commit boundaries every [every] VMM cycles (and once more
   on SIGTERM).  Snapshots are *incremental*: each file carries only
   the memory chunks dirtied since the previous snapshot, tracked by a
   store hook, so steady-state checkpoints are small.  Restoring folds
   the whole sequence over the workload's pristine image.

   File layout: the one store frame ({!Tcache.Codec.frame}) with an
   empty store header:

     magic "DGCK" | version u8 | payload_len vint
     | payload MD5 (16 raw bytes) | payload

   and the payload is: workload str | frontend str | fingerprint str
   | every vint | seq vint | pc vint | machine
   | mem seq vint | console str | counters | health entries
   | dirty chunks.

   The counters are every integer row of the VMM's counter table
   ({!Vmm.Monitor.counters}) as (name str, value vint) pairs, so a
   resumed run reports whole-run totals.  Restoring sets rows by name
   and ignores names the table lacks: a counter added later needs no
   format bump and restores as 0 from an older snapshot.  The timings
   restart at zero.

   Crash safety mirrors the tcache store: snapshots are installed with
   {!Fsio.commit} (temp write, file fsync, rename, directory fsync), so
   a reader never sees a torn snapshot and a kill -9 mid-write costs at
   most one checkpoint interval of progress (its orphaned temp file is
   swept by the next [attach]).  A truncated or
   bit-flipped file fails the magic/version/checksum ladder; [load]
   stops at the first invalid file and restores from the valid prefix.

   Storage faults ({!Fsio.Fault}: ENOSPC, EIO, readonly mount) are a
   *degradation*, not a crash: a failed snapshot surfaces as a typed
   Storage strike — [stats.storage_faults] plus a [Storage_fault]
   event into the ladder/flight/HEALTH plumbing — while the run keeps
   executing with its dirty bitmap intact, so the next interval retries
   a snapshot covering everything the failed one would have. *)

module Codec = Tcache.Codec
module Monitor = Vmm.Monitor
open Ppc

let magic = "DGCK"
let version = 4

(** Dirty-tracking granularity, in bytes.  Independent of the
    translator's page size: this is about snapshot volume, not about
    code invalidation. *)
let chunk = 4096

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type t = {
  dir : string;
  every : int;  (** VMM cycles between snapshots *)
  workload : string;
  vmm : Monitor.t;
  dirty : Bytes.t;
      (** one byte per memory chunk, set when touched since the last
          snapshot — a flat bitmap, not a table: the marker runs on
          every guest store, so it must cost one bounds-checked byte
          write, not a hash insert *)
  mutable seq : int;       (** next snapshot number *)
  mutable last_cycle : int;  (** VMM clock at the last snapshot *)
  io : Fsio.t;
}


let mark t addr n =
  if addr >= 0 && n > 0 then begin
    let lo = addr / chunk and hi = (addr + n - 1) / chunk in
    for i = lo to min hi (Bytes.length t.dirty - 1) do
      Bytes.unsafe_set t.dirty i '\001'
    done
  end

(** Create a checkpointer over [vmm] and add dirty-page tracking to
    the guest store watchers ({!Ppc.Mem.watch}).  [seq] continues an
    existing directory's numbering on resume; the first snapshot of a
    fresh run is made incremental against the *pristine* workload image
    by treating every chunk the run has already dirtied as dirty — for
    a fresh run that is none, and on resume the restored image already
    contains them. *)
let attach ~dir ~every ?(seq = 0) ?(io = Fsio.real) ~workload
    (vmm : Monitor.t) =
  Tcache.Store.mkdir_p dir;
  (* a directory has one writer (serve gives each session its own), so
     any temp file here is a dead writer's orphan *)
  ignore (Fsio.sweep_tmp io dir);
  let t =
    { dir; every; workload; vmm;
      dirty = Bytes.make ((vmm.mem.size + chunk - 1) / chunk) '\000'; seq;
      last_cycle = Monitor.now vmm; io }
  in
  Mem.watch vmm.mem (mark t);
  t

let put_machine b (m : Machine.t) =
  Array.iter (Codec.put_vint b) m.gpr;
  Codec.put_vint b m.cr;
  Codec.put_vint b m.lr;
  Codec.put_vint b m.ctr;
  Codec.put_bool b m.xer_ca;
  Codec.put_bool b m.xer_ov;
  Codec.put_bool b m.xer_so;
  Codec.put_vint b m.pc;
  Codec.put_vint b m.msr;
  Codec.put_vint b m.srr0;
  Codec.put_vint b m.srr1;
  Codec.put_vint b m.dar;
  Codec.put_vint b m.dsisr;
  Codec.put_vint b m.sprg0;
  Codec.put_vint b m.sprg1

let get_machine r (m : Machine.t) =
  for i = 0 to 31 do
    m.gpr.(i) <- Codec.get_vint r
  done;
  m.cr <- Codec.get_vint r;
  m.lr <- Codec.get_vint r;
  m.ctr <- Codec.get_vint r;
  m.xer_ca <- Codec.get_bool r;
  m.xer_ov <- Codec.get_bool r;
  m.xer_so <- Codec.get_bool r;
  m.pc <- Codec.get_vint r;
  m.msr <- Codec.get_vint r;
  m.srr0 <- Codec.get_vint r;
  m.srr1 <- Codec.get_vint r;
  m.dar <- Codec.get_vint r;
  m.dsisr <- Codec.get_vint r;
  m.sprg0 <- Codec.get_vint r;
  m.sprg1 <- Codec.get_vint r

(** Write one snapshot now, with [pc] as the precise resume point.
    Returns the snapshot's size in bytes. *)
let write t ~pc =
  let t0 = Monotonic_clock.now () in
  let vmm = t.vmm in
  let mem = vmm.mem in
  let b = Buffer.create 4096 in
  Codec.put_str b t.workload;
  Codec.put_str b vmm.fe.name;
  Codec.put_str b (Translator.Params.fingerprint vmm.tr.params);
  Codec.put_vint b t.every;
  Codec.put_vint b t.seq;
  Codec.put_vint b pc;
  put_machine b vmm.st.m;
  Codec.put_vint b mem.seq;
  Codec.put_str b (Mem.output mem);
  Codec.put_vint b (List.length Monitor.counters);
  List.iter
    (fun (row : int Monitor.row) ->
      Codec.put_str b row.name;
      Codec.put_vint b (row.get vmm.stats))
    Monitor.counters;
  Codec.put_vint b (Hashtbl.length vmm.page_health);
  Hashtbl.iter
    (fun base (h : Monitor.health) ->
      Codec.put_vint b base;
      Codec.put_vint b h.failures;
      Codec.put_vint b h.backoff_until;
      Codec.put_bool b h.pinned_interp)
    vmm.page_health;
  let chunks = ref [] in
  for i = Bytes.length t.dirty - 1 downto 0 do
    if Bytes.get t.dirty i <> '\000' then chunks := i :: !chunks
  done;
  let chunks = !chunks in
  Codec.put_vint b (List.length chunks);
  List.iter
    (fun i ->
      let off = i * chunk in
      let len = min chunk (mem.size - off) in
      Codec.put_vint b i;
      Codec.put_str b (Bytes.sub_string mem.bytes off len))
    chunks;
  let out = Codec.frame ~magic ~version ~header:ignore (Buffer.contents b) in
  match
    Fsio.commit t.io ~dir:t.dir ~file:(Printf.sprintf "ck-%06d.dgck" t.seq) out
  with
  | () ->
    let bytes = String.length out and pages = List.length chunks in
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    t.seq <- t.seq + 1;
    t.last_cycle <- Monitor.now vmm;
    let seconds = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
    vmm.stats.checkpoints_written <- vmm.stats.checkpoints_written + 1;
    vmm.stats.checkpoint_seconds <- vmm.stats.checkpoint_seconds +. seconds;
    Monitor.emit vmm (fun () ->
        Checkpoint_written
          { cycle = Monitor.now vmm; seq = t.seq - 1; bytes; pages; seconds });
    bytes
  | exception (Fsio.Fault { op; _ } as f) ->
    (* a typed Storage strike: the run keeps executing, the verdict
       degrades (exit 4), and the dirty bitmap stays set so the next
       interval's snapshot covers everything this one would have.
       [last_cycle] still advances — retrying every cycle against a
       full disk would turn one fault into a write storm. *)
    t.last_cycle <- Monitor.now vmm;
    let seconds = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
    vmm.stats.storage_faults <- vmm.stats.storage_faults + 1;
    vmm.stats.checkpoint_seconds <- vmm.stats.checkpoint_seconds +. seconds;
    Monitor.emit vmm (fun () ->
        Storage_fault
          { cycle = Monitor.now vmm; store = "checkpoint"; op;
            reason = Fsio.fault_message f });
    0

(** Write a snapshot if at least [every] VMM cycles of commit progress
    have accumulated since the last one. *)
let maybe t ~pc =
  if Monitor.now t.vmm - t.last_cycle >= t.every then ignore (write t ~pc)

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)

type snapshot = {
  s_workload : string;
  s_frontend : string;
  s_fingerprint : string;
  s_every : int;
  s_seq : int;
  s_pc : int;
  s_machine : Machine.t;
  s_mem_seq : int;
  s_console : string;
  s_counters : (string * int) list;  (** counter-table rows by name *)
  s_health : (int * int * int * bool) list;
  s_chunks : (int * string) list;
}

let parse_snapshot s =
  let (), payload = Codec.unframe ~magic ~version ~header:ignore s in
  let r = Codec.reader payload in
  let s_workload = Codec.get_str r in
  let s_frontend = Codec.get_str r in
  let s_fingerprint = Codec.get_str r in
  let s_every = Codec.get_vint r in
  let s_seq = Codec.get_vint r in
  let s_pc = Codec.get_vint r in
  let s_machine = Machine.create () in
  get_machine r s_machine;
  let s_mem_seq = Codec.get_vint r in
  let s_console = Codec.get_str r in
  let ncounters = Codec.get_count r "counter" in
  let s_counters =
    List.init ncounters (fun _ ->
        let name = Codec.get_str r in
        (name, Codec.get_vint r))
  in
  let nhealth = Codec.get_count r "health" in
  let s_health =
    List.init nhealth (fun _ ->
        let base = Codec.get_vint r in
        let failures = Codec.get_vint r in
        let until = Codec.get_vint r in
        let pinned = Codec.get_bool r in
        (base, failures, until, pinned))
  in
  let nchunks = Codec.get_count r "chunk" in
  let s_chunks =
    List.init nchunks (fun _ ->
        let i = Codec.get_vint r in
        let bytes = Codec.get_str r in
        (i, bytes))
  in
  { s_workload; s_frontend; s_fingerprint; s_every; s_seq; s_pc; s_machine;
    s_mem_seq; s_console; s_counters; s_health; s_chunks }

let snapshot_files dir = Fsio.files_with_suffix dir ".dgck"

type loaded = {
  last : snapshot;      (** scalar state from the newest valid snapshot *)
  deltas : (int * string) list;
      (** memory chunks folded across the whole valid prefix, oldest
          first (later snapshots overwrite earlier ones) *)
  valid : int;          (** snapshots restored *)
  dropped : int;        (** trailing files ignored (corrupt/unreadable) *)
}

(** Fold the snapshot sequence in [dir].  Restoring uses the longest
    valid prefix: a corrupt or unreadable file invalidates itself and
    everything after it (later deltas assume the earlier memory image).
    [None] when the directory holds no usable snapshot. *)
let load ?(io = Fsio.real) ~dir () =
  let files = snapshot_files dir in
  let last = ref None and deltas = ref [] in
  let valid = ref 0 and dropped = ref 0 in
  let rec go = function
    | [] -> ()
    | f :: rest -> (
      match Codec.read io (Filename.concat dir f) parse_snapshot with
      | `Ok snap ->
        last := Some snap;
        deltas := !deltas @ snap.s_chunks;
        incr valid;
        go rest
      | `Missing | `Corrupt _ | `Skipped _ | `Fault _ ->
        dropped := List.length (f :: rest))
  in
  go files;
  match !last with
  | None -> None
  | Some snap ->
    Some { last = snap; deltas = !deltas; valid = !valid; dropped = !dropped }

exception Incompatible of string

(** Restore [l] into a freshly-created VMM whose memory holds the
    workload's pristine image.  Returns [(pc, consumed)]: the precise
    resume address and the VMM cycles already spent (the caller
    subtracts them from the fuel budget so the total is identical to an
    uninterrupted run).  Raises {!Incompatible} on a workload /
    frontend / translator-fingerprint mismatch — resuming under
    different translation parameters would still be architecturally
    correct, but the run would no longer be comparable to the original,
    so it is refused. *)
let restore_into (l : loaded) (vmm : Monitor.t) =
  let snap = l.last in
  if snap.s_frontend <> vmm.fe.name then
    raise
      (Incompatible
         (Printf.sprintf "checkpoint is for frontend %s, VMM runs %s"
            snap.s_frontend vmm.fe.name));
  let fp = Translator.Params.fingerprint vmm.tr.params in
  if snap.s_fingerprint <> fp then
    raise
      (Incompatible
         (Printf.sprintf
            "checkpoint translator fingerprint %s does not match %s"
            snap.s_fingerprint fp));
  let mem = vmm.mem in
  List.iter
    (fun (i, bytes) ->
      let off = i * chunk in
      if off < 0 || off + String.length bytes > mem.size then
        Codec.corrupt "chunk %d outside memory" i;
      (* raw blit: restoring is not a guest store, so no hooks fire *)
      Bytes.blit_string bytes 0 mem.bytes off (String.length bytes))
    l.deltas;
  Machine.blit ~src:snap.s_machine ~dst:vmm.st.m;
  mem.seq <- snap.s_mem_seq;
  Buffer.clear mem.out;
  Buffer.add_string mem.out snap.s_console;
  List.iter
    (fun (row : int Monitor.row) ->
      Option.iter (row.set vmm.stats)
        (List.assoc_opt row.name snap.s_counters))
    Monitor.counters;
  Hashtbl.reset vmm.page_health;
  List.iter
    (fun (base, failures, backoff_until, pinned_interp) ->
      Hashtbl.replace vmm.page_health base
        { Monitor.failures; backoff_until; pinned_interp })
    snap.s_health;
  (snap.s_pc, vmm.stats.vliws + vmm.stats.interp_insns)
