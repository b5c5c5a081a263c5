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

   File layout (reusing lib/tcache's varint codec and checksum
   discipline — magic | version | payload_len | MD5 | payload):

     magic "DGCK" | version u8 | payload_len vint
     | payload MD5 (16 raw bytes) | payload

   and the payload is: workload str | frontend str | fingerprint str
   | every vint | seq vint | pc vint | machine
   | mem seq vint | console str | timer_count vint | stats
   | health entries | dirty chunks.

   Crash safety mirrors the tcache store: snapshots are installed with
   {!Fsio.commit} (temp write, file fsync, rename, directory fsync), so
   a reader never sees a torn snapshot and a kill -9 mid-write costs at
   most one checkpoint interval of progress.  A truncated or
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
let version = 2

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

(** Create a checkpointer over [vmm] and hook dirty-page tracking into
    the guest store path (composing with whatever hook — the VMM's
    code-write watcher — is already installed).  [seq] continues an
    existing directory's numbering on resume; the first snapshot of a
    fresh run is made incremental against the *pristine* workload image
    by treating every chunk the run has already dirtied as dirty — for
    a fresh run that is none, and on resume the restored image already
    contains them. *)
let attach ~dir ~every ?(seq = 0) ?(io = Fsio.real) ~workload
    (vmm : Monitor.t) =
  Tcache.Store.mkdir_p dir;
  let t =
    { dir; every; workload; vmm;
      dirty = Bytes.make ((vmm.mem.size + chunk - 1) / chunk) '\000'; seq;
      last_cycle = Monitor.now vmm; io }
  in
  let mem = vmm.mem in
  (match mem.on_store with
  | Some f ->
    mem.on_store <-
      Some
        (fun addr n ->
          mark t addr n;
          f addr n)
  | None -> mem.on_store <- Some (fun addr n -> mark t addr n));
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

(* The counters a resumed run must continue from: the VMM clock
   ([vliws + interp_insns]) keeps fuel accounting and ladder backoffs
   continuous, and the ladder/supervision counters keep the final
   [degraded] verdict (exit code 4 vs 0) identical to an uninterrupted
   run.  Throughput-only counters restart at zero. *)
let stats_fields (s : Monitor.stats) =
  [| (fun () -> s.vliws), (fun v -> s.vliws <- v);
     (fun () -> s.interp_insns), (fun v -> s.interp_insns <- v);
     (fun () -> s.interp_episodes), (fun v -> s.interp_episodes <- v);
     (fun () -> s.rollbacks), (fun v -> s.rollbacks <- v);
     (fun () -> s.aliases), (fun v -> s.aliases <- v);
     (fun () -> s.syscalls), (fun v -> s.syscalls <- v);
     (fun () -> s.external_interrupts), (fun v -> s.external_interrupts <- v);
     (fun () -> s.translator_faults), (fun v -> s.translator_faults <- v);
     (fun () -> s.exec_faults), (fun v -> s.exec_faults <- v);
     (fun () -> s.quarantines), (fun v -> s.quarantines <- v);
     (fun () -> s.degrade_retries), (fun v -> s.degrade_retries <- v);
     (fun () -> s.interp_pinned), (fun v -> s.interp_pinned <- v);
     (fun () -> s.deadline_hits), (fun v -> s.deadline_hits <- v);
     (fun () -> s.shadow_checked), (fun v -> s.shadow_checked <- v);
     (fun () -> s.shadow_divergences), (fun v -> s.shadow_divergences <- v);
     (fun () -> s.checkpoints_written), (fun v -> s.checkpoints_written <- v)
  |]

(** Write one snapshot now, with [pc] as the precise resume point.
    Returns the snapshot's size in bytes. *)
let write t ~pc =
  let t0 = Sys.time () in
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
  Codec.put_vint b vmm.timer_count;
  let sf = stats_fields vmm.stats in
  Codec.put_vint b (Array.length sf);
  Array.iter (fun (get, _) -> Codec.put_vint b (get ())) sf;
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
  let payload = Buffer.contents b in
  let out = Buffer.create (String.length payload + 32) in
  Buffer.add_string out magic;
  Codec.put_u8 out version;
  Codec.put_vint out (String.length payload);
  Buffer.add_string out (Digest.string payload);
  Buffer.add_string out payload;
  match
    Fsio.commit t.io ~dir:t.dir
      ~file:(Printf.sprintf "ck-%06d.dgck" t.seq)
      (Buffer.contents out)
  with
  | () ->
    let bytes = Buffer.length out and pages = List.length chunks in
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    t.seq <- t.seq + 1;
    t.last_cycle <- Monitor.now vmm;
    let seconds = Sys.time () -. t0 in
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
    let seconds = Sys.time () -. t0 in
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
  s_timer_count : int;
  s_stats : int array;
  s_health : (int * int * int * bool) list;
  s_chunks : (int * string) list;
}

let parse_snapshot s =
  let mlen = String.length magic in
  if String.length s < mlen + 1 then Codec.corrupt "truncated header";
  if String.sub s 0 mlen <> magic then Codec.corrupt "bad magic";
  let v = Char.code s.[mlen] in
  if v <> version then Codec.corrupt "version %d (want %d)" v version;
  let r = Codec.reader s in
  r.pos <- mlen + 1;
  let plen = Codec.get_vint r in
  if plen < 0 || r.pos + 16 + plen <> String.length s then
    Codec.corrupt "payload length %d disagrees with file size" plen;
  let sum = String.sub s r.pos 16 in
  let payload = String.sub s (r.pos + 16) plen in
  if Digest.string payload <> sum then Codec.corrupt "checksum mismatch";
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
  let s_timer_count = Codec.get_vint r in
  let nstats = Codec.get_count r "stats" in
  let s_stats = Array.init nstats (fun _ -> Codec.get_vint r) in
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
    s_mem_seq; s_console; s_timer_count; s_stats; s_health; s_chunks }

(* Whole-file read via the backend; a truncated or torn file yields a
   prefix the checksum ladder rejects. *)
let read_file ?(io = Fsio.real) path = io.Fsio.read_file path

let snapshot_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".dgck")
    |> List.sort compare

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
      match parse_snapshot (read_file ~io (Filename.concat dir f)) with
      | snap ->
        last := Some snap;
        deltas := !deltas @ snap.s_chunks;
        incr valid;
        go rest
      | exception (Codec.Corrupt _ | Sys_error _ | Fsio.Fault _) ->
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
  let m = vmm.st.m in
  Array.blit snap.s_machine.gpr 0 m.gpr 0 32;
  m.cr <- snap.s_machine.cr;
  m.lr <- snap.s_machine.lr;
  m.ctr <- snap.s_machine.ctr;
  m.xer_ca <- snap.s_machine.xer_ca;
  m.xer_ov <- snap.s_machine.xer_ov;
  m.xer_so <- snap.s_machine.xer_so;
  m.pc <- snap.s_machine.pc;
  m.msr <- snap.s_machine.msr;
  m.srr0 <- snap.s_machine.srr0;
  m.srr1 <- snap.s_machine.srr1;
  m.dar <- snap.s_machine.dar;
  m.dsisr <- snap.s_machine.dsisr;
  m.sprg0 <- snap.s_machine.sprg0;
  m.sprg1 <- snap.s_machine.sprg1;
  mem.seq <- snap.s_mem_seq;
  Buffer.clear mem.out;
  Buffer.add_string mem.out snap.s_console;
  vmm.timer_count <- snap.s_timer_count;
  let sf = stats_fields vmm.stats in
  Array.iteri
    (fun i (_, set) -> if i < Array.length snap.s_stats then set snap.s_stats.(i))
    sf;
  Hashtbl.reset vmm.page_health;
  List.iter
    (fun (base, failures, backoff_until, pinned_interp) ->
      Hashtbl.replace vmm.page_health base
        { Monitor.failures; backoff_until; pinned_interp })
    snap.s_health;
  (snap.s_pc, vmm.stats.vliws + vmm.stats.interp_insns)
