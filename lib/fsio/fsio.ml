(* The pluggable storage layer under every durable store.

   All four persistence layers — the translation cache, the profile
   store, checkpoints and the flight recorder — used to speak to the
   filesystem directly and assume it never lies.  This module gives
   them one seam instead: a record of IO operations ({!t}) with two
   implementations.  {!real} talks to the actual filesystem and maps
   the storage errnos that have a recovery story (ENOSPC, EIO, EROFS)
   into the typed {!Fault} the stores degrade on; {!faulty} wraps any
   backend with a seeded injector that manufactures those same faults
   on demand — plus the two a correct filesystem never admits to: a
   short write or torn rename that *reports success*, and a crash
   point that abandons the process mid-operation.

   The commit discipline lives here too.  {!commit} is the one way an
   entry reaches its final name:

     write temp (chunked) -> fsync temp -> rename -> fsync dir

   so a reader can only ever observe no entry or a whole entry, and a
   power cut costs at most an orphaned [*.tmp] (swept at open / fsck).
   The lying-filesystem classes are exactly the ones the stores' shared
   frame check (Tcache.Codec.unframe) exists for; the crash-point
   enumerator in the tests walks every durable step of a commit and
   asserts each store recovers to a valid prefix.

   Faults are *storage* conditions, not bugs, so the exception carries
   a class the caller can type its degradation on: the tcache falls
   back to an in-memory overlay, profile/flight buffer in memory,
   checkpoints surface a Storage strike.  {!Crash} is different — it
   models the process dying, so no store may catch it; only the
   crash-point simulator does. *)

type error_class =
  | Enospc       (** no space left on device *)
  | Eio          (** input/output error *)
  | Readonly     (** read-only filesystem *)

let class_string = function
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Readonly -> "readonly"

(** A typed storage fault: [op] is the IO operation ("write", "rename",
    …), [path] the file it was aimed at.  Stores catch this and
    degrade; it must never escape to a guest run. *)
exception Fault of { op : string; path : string; cls : error_class }

let fault_message = function
  | Fault { op; path; cls } ->
    Printf.sprintf "%s: %s: %s" op (Filename.basename path)
      (class_string cls)
  | _ -> invalid_arg "Fsio.fault_message"

(** The crash-point simulator fired at durable step [n]: the simulated
    process is dead mid-operation.  Deliberately NOT a {!Fault} — no
    store is allowed to absorb it; only the recovery harness catches
    it, then reopens the store and asserts a valid prefix survived. *)
exception Crash of int

type t = {
  label : string;
  read_file : string -> string;
      (** whole file; raises [Sys_error] or {!Fault}.  A file shrinking
          or torn mid-read returns the prefix — the parse ladders
          reject it as corrupt. *)
  write_file : string -> string -> unit;
      (** create/truncate, write everything, fsync the file *)
  rename : string -> string -> unit;
  remove : string -> unit;
  readdir : string -> string array;
  mkdir : string -> unit;  (** one level, 0o755 *)
  fsync_dir : string -> unit;
      (** make a completed rename durable; best-effort on filesystems
          that refuse directory fsync *)
  utimes : string -> unit;  (** touch mtime to now (LRU clock) *)
}

(* ------------------------------------------------------------------ *)
(* The real backend                                                    *)

(* The storage errnos every deployment eventually meets become typed
   faults so production degrades exactly like the injected runs the
   tests rehearse; anything else stays a [Sys_error] (a bug or a
   misconfiguration, not a storage condition). *)
let classify op path = function
  | Unix.ENOSPC -> Fault { op; path; cls = Enospc }
  | Unix.EIO -> Fault { op; path; cls = Eio }
  | Unix.EROFS -> Fault { op; path; cls = Readonly }
  | e -> Sys_error (path ^ ": " ^ Unix.error_message e)

let chunk = 4096

let real =
  (* Through Unix, so [classify] types EIO like every other operation;
     one buffer of the file's size, returned without a copy if filled *)
  let read_file path =
    match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error (e, _, _) -> raise (classify "read" path e)
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            let size = (Unix.fstat fd).Unix.st_size in
            let buf = Bytes.create size in
            let rec fill pos =
              if pos = size then pos
              else
                match Unix.read fd buf pos (size - pos) with
                | 0 -> pos  (* shrank mid-read: the prefix *)
                | n -> fill (pos + n)
            in
            let got = fill 0 in
            if got = size then Bytes.unsafe_to_string buf
            else Bytes.sub_string buf 0 got
          with Unix.Unix_error (e, _, _) -> raise (classify "read" path e))
  in
  let write_file path contents =
    match
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    with
    | exception Unix.Unix_error (e, _, _) ->
      raise (classify "write" path e)
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            let len = String.length contents in
            let pos = ref 0 in
            while !pos < len do
              let n =
                Unix.write_substring fd contents !pos (min chunk (len - !pos))
              in
              pos := !pos + n
            done;
            Unix.fsync fd
          with Unix.Unix_error (e, _, _) -> raise (classify "write" path e))
  in
  let rename src dst =
    try Unix.rename src dst
    with Unix.Unix_error (e, _, _) -> raise (classify "rename" dst e)
  in
  let remove path =
    try Unix.unlink path
    with Unix.Unix_error (e, _, _) -> raise (classify "remove" path e)
  in
  let readdir path = Sys.readdir path in
  let mkdir path =
    try Unix.mkdir path 0o755
    with Unix.Unix_error (e, _, _) -> raise (classify "mkdir" path e)
  in
  let fsync_dir path =
    (* making the rename itself durable; a filesystem that refuses
       directory fsync gets rename-at-mount-sync semantics, which is
       the pre-fsio status quo — never an error *)
    match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let utimes path =
    try Unix.utimes path 0. 0.
    with Unix.Unix_error (e, _, _) -> raise (classify "utimes" path e)
  in
  { label = "real"; read_file; write_file; rename; remove; readdir; mkdir;
    fsync_dir; utimes }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let rec mkdir_p io dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p io (Filename.dirname dir);
    try io.mkdir dir
    with Sys_error _ when Sys.is_directory dir -> ()
  end

(** The files in [dir] whose names end in [suffix], sorted; [] when
    [dir] is missing or unreadable.  A listing for the directory tools
    and the stores' own scans, so it reads the real filesystem. *)
let files_with_suffix dir suffix =
  match Sys.readdir dir with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.sort compare
  | exception Sys_error _ -> []

(** Remove the orphaned temp files ([*.tmp]) a killed writer left in
    [dir], through [io]; returns how many went.  Never raises: a file
    that will not go simply stays for the next sweep or fsck. *)
let sweep_tmp io dir =
  match io.readdir dir with
  | exception (Sys_error _ | Fault _) -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f ".tmp" then
          match io.remove (Filename.concat dir f) with
          | () -> n + 1
          | exception (Sys_error _ | Fault _) -> n
        else n)
      0 files

(** Set a bad file aside as [path ^ ".bad"], through [io]: the bytes
    stay for the post-mortem and no reader looks at them again.
    Removal is the fallback on a filesystem that refuses the rename.
    Tells whether [path] went; never raises. *)
let set_aside io path =
  match io.rename path (path ^ ".bad") with
  | () -> true
  | exception (Sys_error _ | Fault _) -> (
    match io.remove path with
    | () -> true
    | exception (Sys_error _ | Fault _) -> false)

let commit_seq = Atomic.make 0

(** A unique temp name inside [dir].  Always suffixed [".tmp"], so the
    stores' orphan sweeps and fsck recognise a dead writer's leavings
    regardless of which store wrote them. *)
let temp_name dir =
  Filename.concat dir
    (Printf.sprintf ".commit-%d-%d.tmp" (Unix.getpid ())
       (Atomic.fetch_and_add commit_seq 1))

(** Atomically install [contents] as [dir/file]: temp write + file
    fsync + rename + directory fsync.  On failure the temp file is
    removed and the fault re-raised — the destination is never torn by
    this path (only a lying backend can tear it).  {!Crash} skips the
    cleanup: the simulated process died, so its orphan stays exactly
    where a real kill would leave it. *)
let commit io ~dir ~file contents =
  let tmp = temp_name dir in
  (try
     io.write_file tmp contents;
     io.rename tmp (Filename.concat dir file)
   with
   | Crash _ as e -> raise e
   | e ->
     (try io.remove tmp with Fault _ | Sys_error _ -> ());
     raise e);
  io.fsync_dir dir

(* ------------------------------------------------------------------ *)
(* The fault backend                                                   *)

type fault_config = {
  seed : int;
  enospc_rate : float;       (** per write: prefix lands, then ENOSPC *)
  eio_read_rate : float;     (** per whole-file read *)
  eio_write_rate : float;    (** per write/rename/remove *)
  short_write_rate : float;
      (** per write: only a prefix reaches the disk but the write
          *reports success* — the class the checksum ladder exists for *)
  torn_rename_rate : float;
      (** per rename: the destination appears with truncated contents
          and the source is gone, reported as success *)
  readonly : bool;           (** every mutation faults [Readonly] *)
  crash_at : int option;
      (** die at durable step N (chunk writes, fsyncs, renames,
          removes each count one); [None] counts steps without dying *)
}

(** All rates zero, no crash: wraps a backend transparently while
    still counting durable steps — the dry-run half of the
    crash-point enumerator. *)
let fault_quiet =
  { seed = 0xF510; enospc_rate = 0.; eio_read_rate = 0.;
    eio_write_rate = 0.; short_write_rate = 0.; torn_rename_rate = 0.;
    readonly = false; crash_at = None }

(** The storage acceptance cocktail: every lying-filesystem class at a
    nonzero rate.  Under it a fleet must finish with zero crashes,
    zero mismatches and zero leaked pins — storage faults may cost
    retranslations and degraded durability, never wrong answers. *)
(* reads dominate a coalesced fleet's disk traffic (every session
   probes each page once, the gate winner alone writes), so the read
   rate carries the cocktail: it keeps the expected fault count well
   clear of zero on the fleet sizes the acceptance runs use. *)
let storage_cocktail =
  { fault_quiet with enospc_rate = 0.05; eio_read_rate = 0.05;
    eio_write_rate = 0.02; short_write_rate = 0.03;
    torn_rename_rate = 0.05 }

type injector = {
  f_cfg : fault_config;
  f_rng : Random.State.t;
  mutable steps : int;        (** durable steps performed so far *)
  mutable crashed : bool;     (** the crash point fired; io is dead *)
  mutable last_rename : (string * string) option;
      (** (src, dst) of the newest completed rename — undone when the
          crash lands on the directory fsync that would have made it
          durable *)
  mutable n_enospc : int;
  mutable n_eio_read : int;
  mutable n_eio_write : int;
  mutable n_short : int;
  mutable n_torn : int;
  mutable n_readonly : int;
}

let steps inj = inj.steps

let faults_fired inj =
  inj.n_enospc + inj.n_eio_read + inj.n_eio_write + inj.n_short + inj.n_torn
  + inj.n_readonly

(* Zero-rate classes draw nothing, so adding a class later cannot
   shift the streams of seeds recorded before it existed (the same
   discipline as Fault.Inject). *)
let chance inj p = p > 0. && Random.State.float inj.f_rng 1. < p

(** Wrap [base] (default {!real}) in the configured injector.  Reads,
    writes, renames and removes are subject to the fault classes;
    [readdir]/[mkdir]/[fsync_dir] stay honest apart from readonly and
    crash accounting — corrupting the namespace itself has no recovery
    story to test. *)
let faulty ?(base = real) cfg =
  let inj =
    { f_cfg = cfg; f_rng = Random.State.make [| cfg.seed; 0x46534941 |];
      steps = 0; crashed = false; last_rename = None;
      n_enospc = 0; n_eio_read = 0; n_eio_write = 0; n_short = 0;
      n_torn = 0; n_readonly = 0 }
  in
  (* One durable step: a write chunk, a file fsync, a rename, a remove
     or a directory fsync.  Returns [true] when this step is the crash
     point — the caller tears its in-flight state, then [die]s. *)
  let step () =
    if inj.crashed then raise (Crash inj.steps);
    let here = inj.steps in
    inj.steps <- inj.steps + 1;
    match cfg.crash_at with
    | Some n when n = here -> true
    | _ -> false
  in
  let die () =
    inj.crashed <- true;
    raise (Crash (inj.steps - 1))
  in
  let guard_mutation op path =
    if cfg.readonly then begin
      inj.n_readonly <- inj.n_readonly + 1;
      raise (Fault { op; path; cls = Readonly })
    end
  in
  let read_file path =
    if inj.crashed then raise (Crash inj.steps);
    if chance inj cfg.eio_read_rate then begin
      inj.n_eio_read <- inj.n_eio_read + 1;
      raise (Fault { op = "read"; path; cls = Eio })
    end;
    base.read_file path
  in
  let write_file path contents =
    guard_mutation "write" path;
    let len = String.length contents in
    let nchunks = max 1 ((len + chunk - 1) / chunk) in
    (* enumerate the chunk writes: a crash mid-write leaves the prefix
       flushed so far plus half of the chunk in flight *)
    let crashed_at = ref None in
    (try
       for i = 0 to nchunks - 1 do
         if step () then begin
           crashed_at := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    (match !crashed_at with
    | Some i ->
      let keep = min len ((i * chunk) + (chunk / 2)) in
      base.write_file path (String.sub contents 0 keep);
      die ()
    | None -> ());
    if chance inj cfg.eio_write_rate then begin
      inj.n_eio_write <- inj.n_eio_write + 1;
      raise (Fault { op = "write"; path; cls = Eio })
    end;
    if chance inj cfg.enospc_rate then begin
      (* the disk filled mid-write: a prefix landed, then ENOSPC *)
      let keep = Random.State.int inj.f_rng (max 1 len) in
      base.write_file path (String.sub contents 0 keep);
      inj.n_enospc <- inj.n_enospc + 1;
      raise (Fault { op = "write"; path; cls = Enospc })
    end;
    if chance inj cfg.short_write_rate && len > 1 then begin
      (* a lying write: a strict prefix lands, success is reported *)
      let keep = 1 + Random.State.int inj.f_rng (len - 1) in
      base.write_file path (String.sub contents 0 keep);
      inj.n_short <- inj.n_short + 1
    end
    else begin
      base.write_file path contents;
      (* the file fsync is its own durable step: a crash here loses
         the unsynced tail of the last chunk *)
      if step () then begin
        let keep = max 0 (len - (chunk / 2)) in
        base.write_file path (String.sub contents 0 keep);
        die ()
      end
    end
  in
  let rename src dst =
    guard_mutation "rename" dst;
    if step () then die ();  (* crash before the rename: orphan temp *)
    if chance inj cfg.eio_write_rate then begin
      inj.n_eio_write <- inj.n_eio_write + 1;
      raise (Fault { op = "rename"; path = dst; cls = Eio })
    end;
    if chance inj cfg.torn_rename_rate then begin
      (* the destination materialises truncated, the source is gone,
         and the operation reports success — only the entry's checksum
         ladder can notice *)
      let contents = try base.read_file src with Sys_error _ | Fault _ -> "" in
      let keep =
        if String.length contents > 1 then
          1 + Random.State.int inj.f_rng (String.length contents - 1)
        else String.length contents
      in
      base.write_file dst (String.sub contents 0 keep);
      (try base.remove src with Sys_error _ | Fault _ -> ());
      inj.n_torn <- inj.n_torn + 1
    end
    else begin
      base.rename src dst;
      inj.last_rename <- Some (src, dst)
    end
  in
  let remove path =
    guard_mutation "remove" path;
    if step () then die ();
    if chance inj cfg.eio_write_rate then begin
      inj.n_eio_write <- inj.n_eio_write + 1;
      raise (Fault { op = "remove"; path; cls = Eio })
    end;
    base.remove path
  in
  let readdir path =
    if inj.crashed then raise (Crash inj.steps);
    base.readdir path
  in
  let mkdir path =
    guard_mutation "mkdir" path;
    base.mkdir path
  in
  let fsync_dir path =
    (* a crash on the directory fsync means the rename never became
       durable: undo it, leaving the completed temp as the orphan a
       real power cut would *)
    if step () then begin
      (match inj.last_rename with
      | Some (src, dst) ->
        (try base.rename dst src with Sys_error _ | Fault _ -> ())
      | None -> ());
      die ()
    end;
    base.fsync_dir path
  in
  let utimes path =
    if inj.crashed then raise (Crash inj.steps);
    if cfg.readonly then begin
      inj.n_readonly <- inj.n_readonly + 1;
      raise (Fault { op = "utimes"; path; cls = Readonly })
    end;
    base.utimes path
  in
  ( { label = Printf.sprintf "faulty(seed=%d)" cfg.seed; read_file;
      write_file; rename; remove; readdir; mkdir; fsync_dir; utimes },
    inj )
