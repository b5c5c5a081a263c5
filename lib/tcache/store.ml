(* The content-addressed on-disk store for translated pages.

   One entry per file, named by the hex digest of everything that
   determines the translation's bytes:

     key = MD5(frontend \0 params-fingerprint \0 page-base \0 page-bytes)

   Keying on the *exact input bytes* is what makes reuse sound (the
   deterministic-translation argument): if the base page's bytes, its
   address, the translator configuration or the front end differ in any
   way, the key differs and the entry is simply never found.  The page
   base participates because translations embed absolute addresses
   (precise entry points, OFFPAGE targets, the VLIW-space layout).

   File layout: the one store frame ({!Codec.frame}); this store's
   header runs from the kind byte to the entry count (all multi-byte
   integers via the codec's varints):

     magic "DTCE" | version u8 | kind u8 (0 = page, 1 = region)
     | frontend str | fingerprint str
     | [kind = 1: member count vint, member bases vint*]
     | base vint | psize vint | spec_inhibited bool
     | vliws vint | entries vint | payload_len vint
     | payload MD5 (16 raw bytes) | payload (Codec.encode_xpage)

   Region entries (tier-2 superblock images) go through the same
   [probe], [persist] and [evict] as page entries, into the same
   directory under the same ".dtc" suffix, budget/LRU machinery and
   quarantine path; they differ only in the kind tag, the member-base
   list and the key derivation — a region's key covers the *set* of
   member pages' contents, so a byte change in any member misses, and
   starts with [region_prefix], so a warm start finds the region
   entries by name without opening a page entry.  The fingerprint
   stored in a region entry is the *region scheduler's* params
   fingerprint, not the store's tier-1 one.

   Storage: all file IO goes through an {!Fsio.t} backend ([Fsio.real]
   unless the caller injects faults).  Entries are installed with
   {!Fsio.commit} — temp write, file fsync, rename, directory fsync —
   so a reader never observes a half-written entry and a killed writer
   leaves only a stray temp file (swept at open).  A truncated,
   bit-flipped or other-version entry fails the
   magic/version/checksum/decode ladder and reports as [`Corrupt]; the
   VMM then falls back to a normal translate.  A probe checks the whole
   entry but leaves each tree's body to be decoded when the tree first
   stages (see {!Codec}).

   Degradation: the cache is best-effort, so a *storage fault*
   ([Fsio.Fault]: ENOSPC, EIO, readonly mount) never escapes to the
   guest.  A failed install parks the entry in an in-memory overlay —
   the session keeps its warm start, only durability is lost — and a
   failed probe read falls back to the same overlay.  Every such event
   bumps [degraded_count] so the monitor can surface it.

   Sharing: several VMMs — domains in one `daisy serve` process, or
   separate processes — may point at one directory.  Probes stay
   lock-free (rename atomicity means a reader sees a whole entry or no
   entry), but every *mutation* of the directory's file set (the
   orphan-temp sweep at open, persist's temp-create..rename window,
   eviction) runs under the directory lock: a per-directory in-process
   mutex stacked on an advisory [Unix.lockf] range lock on a
   ".dtclock" file.  Both layers are needed — fcntl locks never
   exclude the owning process, and a bare mutex never excludes another
   process.  Under the lock, a temp file seen by the sweep can only be
   a dead writer's orphan, never a live concurrent write.

   Recency: a probe hit touches the entry's mtime, so file mtime is a
   cheap persistent LRU clock; [enforce_budget] casts out the
   oldest-mtime unpinned entries when the directory exceeds a byte
   budget. *)

let magic = "DTCE"
let lock_file = ".dtclock"

(* An entry that could not reach (or be read back from) the disk,
   parked in memory: the warm start survives the fault, only
   durability is lost.  It carries its fingerprint and member set
   ([||] for a page), exactly like the on-disk layout. *)
type overlay_entry = {
  o_page : Translator.Translate.xpage;
  o_si : bool;
  o_fingerprint : string;
  o_members : int array;
}

type t = {
  dir : string;
  frontend : string;
  fingerprint : string;
  swept_tmp : int;
      (** orphaned temp files from a killed writer, removed at open *)
  lock_fd : Unix.file_descr;
      (** open for the store's lifetime; see [with_dir_lock] *)
  io : Fsio.t;
  overlay : (string, overlay_entry) Hashtbl.t;
      (** keyed like the directory; entries that survived a storage
          fault in memory only *)
  olock : Mutex.t;  (** guards [overlay] and [degraded] across domains *)
  mutable degraded : int;
      (** storage faults absorbed by falling back to the overlay *)
}

(* One mutex per directory per process, created on first open and never
   dropped (the set of cache dirs a process touches is tiny).  Keyed on
   the directory path as given — callers that alias one directory under
   two spellings still get cross-process safety from lockf. *)
let dir_mutexes : (string, Mutex.t) Hashtbl.t = Hashtbl.create 8
let dir_mutexes_lock = Mutex.create ()

let dir_mutex dir =
  Mutex.lock dir_mutexes_lock;
  let m =
    match Hashtbl.find_opt dir_mutexes dir with
    | Some m -> m
    | None ->
      let m = Mutex.create () in
      Hashtbl.add dir_mutexes dir m;
      m
  in
  Mutex.unlock dir_mutexes_lock;
  m

(* Serialize directory mutations within this process (mutex) and
   against other processes (lockf on the shared lock file).  The mutex
   is taken first, so at most one fd per process holds the fcntl lock —
   which sidesteps fcntl's same-process merge/close semantics. *)
let with_dir_lock ~dir ~lock_fd f =
  let m = dir_mutex dir in
  Mutex.lock m;
  let locked =
    (* Advisory only: on a filesystem that refuses fcntl locks we still
       have in-process exclusion, which covers the serve daemon. *)
    match Unix.lockf lock_fd Unix.F_LOCK 0 with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  Fun.protect
    ~finally:(fun () ->
      if locked then
        (try Unix.lockf lock_fd Unix.F_ULOCK 0
         with Unix.Unix_error _ -> ());
      Mutex.unlock m)
    f

type probe_result =
  [ `Hit of Translator.Translate.xpage * bool  (** page, spec_inhibited *)
  | `Miss
  | `Corrupt of string   (** entry content failed validation *)
  | `Skipped of string ]
  (** not an entry at all (a directory squatting on the name), an
      entry we cannot read (permissions, I/O error) or a storage fault
      with no overlay copy — never a reason to raise; the VMM counts
      it and translates normally *)

let mkdir_p dir = Fsio.mkdir_p Fsio.real dir

let open_store ?(io = Fsio.real) ~dir ~frontend ~fingerprint () =
  mkdir_p dir;
  let lock_fd =
    Unix.openfile
      (Filename.concat dir lock_file)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  (* A writer killed between temp-file creation and rename leaves a
     stray *.tmp behind.  No reader ever looks at temp files, so the
     store stays correct either way; sweeping them at open keeps a
     crash-looped run from accumulating garbage.  The sweep holds the
     directory lock: persist's temp-create..rename window holds the
     same lock, so a temp file seen here can only be an orphan from a
     dead writer, never another store's in-flight install. *)
  let swept_tmp =
    with_dir_lock ~dir ~lock_fd (fun () -> Fsio.sweep_tmp io dir)
  in
  { dir; frontend; fingerprint; swept_tmp; lock_fd; io;
    overlay = Hashtbl.create 8; olock = Mutex.create (); degraded = 0 }

let with_olock t f =
  Mutex.lock t.olock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.olock) f

(** Storage faults absorbed so far by degrading to the in-memory
    overlay (failed installs and unreadable probes with a live copy or
    not — every fault the store ate instead of raising). *)
let degraded_count t = with_olock t (fun () -> t.degraded)

(** Entries currently parked in the in-memory overlay (installed or
    re-served across a storage fault; durability lost). *)
let overlay_count t = with_olock t (fun () -> Hashtbl.length t.overlay)

let note_degraded t = with_olock t (fun () -> t.degraded <- t.degraded + 1)

(** The content-addressed key for a page: [bytes] are the page's exact
    base-architecture bytes, [base] its physical base address. *)
let key t ~base bytes =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ t.frontend; t.fingerprint; string_of_int base; bytes ]))

(** Region keys start with this prefix.  Page keys are lowercase hex,
    so the two key spaces never meet, and a directory listing tells a
    region entry by its name alone. *)
let region_prefix = "r"

(** The content-addressed key for a tier-2 region image: covers the
    region scheduler's fingerprint, the sorted member bases and every
    member page's exact bytes (in member order), so any byte change in
    any member — or a different member set — is a miss. *)
let region_key t ~fingerprint ~members ~bytes =
  region_prefix
  ^ Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            ([ t.frontend; fingerprint ]
            @ Array.to_list (Array.map string_of_int members)
            @ bytes)))

let path_of t k = Filename.concat t.dir (k ^ ".dtc")

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type header = {
  h_kind : [ `Page | `Region ];
  h_frontend : string;
  h_fingerprint : string;
  h_members : int array;  (** member tier-1 page bases; [||] for pages *)
  h_base : int;
  h_psize : int;
  h_spec_inhibited : bool;
  h_vliws : int;
  h_entries : int;
}

(* Check one entry file's frame and parse its header; returns the
   header and the checksum-verified encoded page.  Raises
   {!Codec.Corrupt}. *)
let parse_entry s =
  Codec.unframe ~magic ~version:Codec.version ~fixed:1 s ~header:(fun r ->
      let h_kind =
        match Codec.get_u8 r with
        | 0 -> `Page
        | 1 -> `Region
        | n -> Codec.corrupt "bad entry kind %d" n
      in
      let h_frontend = Codec.get_str r in
      let h_fingerprint = Codec.get_str r in
      let h_members =
        match h_kind with
        | `Page -> [||]
        | `Region ->
          let n = Codec.get_count r "member" in
          if n = 0 then Codec.corrupt "region with no members";
          Array.init n (fun _ -> Codec.get_vint r)
      in
      let h_base = Codec.get_vint r in
      let h_psize = Codec.get_vint r in
      let h_spec_inhibited = Codec.get_bool r in
      let h_vliws = Codec.get_vint r in
      let h_entries = Codec.get_vint r in
      { h_kind; h_frontend; h_fingerprint; h_members; h_base; h_psize;
        h_spec_inhibited; h_vliws; h_entries })

(** An entry file whose frame and header are checked: what
    {!region_entries} read, for {!probe} to take instead of reading the
    file again. *)
type checked = header * string

(** Probe for the entry under [key].  By default the entry is a tier-1
    page under the store's own fingerprint; a tier-2 caller names the
    image's [members] and the *region scheduler's* [fingerprint].  The
    entry's kind, member list and fingerprint must all be the ones
    named: the caller derived the key from the same values, so a
    mismatch means a colliding or tampered entry, reported
    [`Corrupt].  [checked], when given, is the entry as already read,
    and the file is not read again. *)
let probe ?fingerprint ?(members = [||]) ?checked t ~key:k : probe_result =
  let fingerprint = Option.value fingerprint ~default:t.fingerprint in
  let path = path_of t k in
  (* the copy a degraded install parked, if it is the unit named *)
  let from_overlay otherwise =
    match with_olock t (fun () -> Hashtbl.find_opt t.overlay k) with
    | Some o when o.o_fingerprint = fingerprint && o.o_members = members ->
      `Hit (o.o_page, o.o_si)
    | _ -> otherwise
  in
  let unit_named ((h, payload) : checked) =
    if (h.h_kind = `Region) <> (members <> [||]) then
      Codec.corrupt "entry kind mismatch";
    if h.h_frontend <> t.frontend || h.h_fingerprint <> fingerprint then
      Codec.corrupt "fingerprint mismatch";
    if h.h_members <> members then Codec.corrupt "member mismatch";
    let page = Codec.decode_xpage payload in
    if page.base <> h.h_base then Codec.corrupt "base mismatch";
    (page, h.h_spec_inhibited)
  in
  match
    match checked with
    | Some c -> (
      match unit_named c with
      | v -> `Ok v
      | exception Codec.Corrupt msg -> `Corrupt msg)
    | None -> Codec.read t.io path (fun s -> unit_named (parse_entry s))
  with
  | `Ok (page, si) ->
    (* the persistent LRU clock: a hit marks the entry recently used,
       so [enforce_budget] casts out cold entries first.  Best
       effort — a read-only cache dir still serves hits. *)
    (try t.io.Fsio.utimes path
     with Unix.Unix_error _ | Sys_error _ | Fsio.Fault _ -> ());
    `Hit (page, si)
  | `Missing -> from_overlay `Miss
  | (`Corrupt _ | `Skipped _) as r -> r
  | `Fault msg ->
    (* a storage fault, not a bad entry: degrade, serve the overlay
       copy if one exists, and let the VMM translate otherwise *)
    note_degraded t;
    from_overlay (`Skipped msg)

(** The region entries in the store's directory, as [(key, members,
    checked)]: only files named under {!region_prefix} are read, each
    once, through the store's backend, and an entry that cannot be read
    or whose frame or header does not parse is left out (a probe of its
    key reports it).  [probe ~checked] takes the entry from there. *)
let region_entries t =
  Fsio.files_with_suffix t.dir ".dtc"
  |> List.filter_map (fun f ->
         let key = Filename.chop_suffix f ".dtc" in
         if not (String.starts_with ~prefix:region_prefix key) then None
         else
           match Codec.read t.io (path_of t key) parse_entry with
           | `Ok ((h, _) as checked) when h.h_kind = `Region ->
             Some (key, h.h_members, checked)
           | _ -> None)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(** Persist [page] under [key], atomically ({!Fsio.commit}: temp write,
    file fsync, rename, directory fsync).  The optional arguments name
    the unit as {!probe} does: a tier-1 page by default, a region image
    with [members] (written with the region kind tag and the member
    list) and the region scheduler's [fingerprint].  A storage fault
    degrades to the in-memory overlay instead of raising.  Returns the
    entry's size in bytes. *)
let persist ?fingerprint ?(members = [||]) t ~key:k
    (page : Translator.Translate.xpage) ~spec_inhibited =
  let fingerprint = Option.value fingerprint ~default:t.fingerprint in
  let entry =
    Codec.frame ~magic ~version:Codec.version (Codec.encode_xpage page)
      ~header:(fun b ->
        Codec.put_u8 b (if members = [||] then 0 else 1);
        Codec.put_str b t.frontend;
        Codec.put_str b fingerprint;
        if members <> [||] then begin
          Codec.put_vint b (Array.length members);
          Array.iter (Codec.put_vint b) members
        end;
        Codec.put_vint b page.base;
        Codec.put_vint b page.psize;
        Codec.put_bool b spec_inhibited;
        Codec.put_vint b (Translator.Vec.length page.vliws);
        Codec.put_vint b (Hashtbl.length page.entries))
  in
  (match
     with_dir_lock ~dir:t.dir ~lock_fd:t.lock_fd (fun () ->
         Fsio.commit t.io ~dir:t.dir ~file:(k ^ ".dtc") entry)
   with
  | () ->
    (* a durable install supersedes any overlay copy of the entry *)
    with_olock t (fun () -> Hashtbl.remove t.overlay k)
  | exception Fsio.Fault _ ->
    (* the disk refused the entry: park it in memory so this process
       keeps its warm start, and count the degradation.  The caller's
       contract is unchanged — the cache never fails an install. *)
    with_olock t (fun () ->
        t.degraded <- t.degraded + 1;
        Hashtbl.replace t.overlay k
          { o_page = page; o_si = spec_inhibited; o_fingerprint = fingerprint;
            o_members = members }));
  String.length entry

(** Drop the entry under [key], if present; tells whether one was. *)
let evict t ~key:k =
  let path = path_of t k in
  with_olock t (fun () -> Hashtbl.remove t.overlay k);
  with_dir_lock ~dir:t.dir ~lock_fd:t.lock_fd (fun () ->
      match t.io.Fsio.remove path with
      | () -> true
      | exception Sys_error _ -> false
      | exception Fsio.Fault _ ->
        note_degraded t;
        false)

(** Quarantine the entry under [key]: set the file aside as
    [<key>.dtc.bad] instead of deleting it, so a corrupt or truncated
    entry found under load stops poisoning probes immediately while the
    bytes stay on disk for a post-mortem.  The next translation of the
    page persists over the entry name and heals the cache; the [.bad]
    file is invisible to probes, budgets and [stray_files], and is
    removed by [clear_dir].  Repeated quarantines of one key overwrite
    the previous corpse.  Tells whether an entry was actually there. *)
let quarantine t ~key:k =
  with_dir_lock ~dir:t.dir ~lock_fd:t.lock_fd (fun () ->
      Fsio.set_aside t.io (path_of t k))

(* ------------------------------------------------------------------ *)
(* Admission / eviction                                                 *)

(** Sum of entry-file sizes in [dir] (entries only — temp files, the
    lock file and strays don't count against the budget). *)
let dir_bytes dir =
  List.fold_left
    (fun n f ->
      match Unix.stat (Filename.concat dir f) with
      | st -> n + st.Unix.st_size
      | exception Unix.Unix_error _ -> n)
    0
    (Fsio.files_with_suffix dir ".dtc")

type budget_report = {
  resident_bytes : int;  (** entry bytes after enforcement *)
  evicted : int;         (** entries cast out *)
  evicted_bytes : int;
  pinned_over : bool;
      (** the budget could not be met because everything left is
          pinned — the budget is soft against live sessions *)
}

(** Cast out oldest-mtime entries until the directory's entry bytes fit
    [budget].  [pinned key] protects entries hot in a live session —
    the caller knows which keys its guests are executing from.  Runs
    under the directory lock, so concurrent installs and other
    enforcers serialize with it. *)
let enforce_budget ?(pinned = fun _ -> false) t ~budget =
  with_dir_lock ~dir:t.dir ~lock_fd:t.lock_fd (fun () ->
      let entries =
        Fsio.files_with_suffix t.dir ".dtc"
        |> List.filter_map (fun f ->
               let path = Filename.concat t.dir f in
               match Unix.stat path with
               | st ->
                 Some
                   ( Filename.chop_suffix f ".dtc",
                     path, st.Unix.st_size, st.Unix.st_mtime )
               | exception Unix.Unix_error _ -> None)
      in
      let total = List.fold_left (fun n (_, _, sz, _) -> n + sz) 0 entries in
      if total <= budget then
        { resident_bytes = total; evicted = 0; evicted_bytes = 0;
          pinned_over = false }
      else begin
        (* oldest first; pinned entries sort behind everything so they
           are only reached once the unpinned pool is exhausted *)
        let victims =
          List.filter (fun (k, _, _, _) -> not (pinned k)) entries
          |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
        in
        let resident = ref total and evicted = ref 0 and freed = ref 0 in
        List.iter
          (fun (_, path, sz, _) ->
            if !resident > budget then
              match t.io.Fsio.remove path with
              | () ->
                resident := !resident - sz;
                incr evicted;
                freed := !freed + sz
              | exception Sys_error _ -> ()
              | exception Fsio.Fault _ -> note_degraded t)
          victims;
        { resident_bytes = !resident; evicted = !evicted;
          evicted_bytes = !freed; pinned_over = !resident > budget }
      end)

(* ------------------------------------------------------------------ *)
(* Directory tools (daisy tcache stats / ls / clear / fsck)            *)

type info = {
  key : string;
  file_bytes : int;  (** 0 unless the entry parses *)
  kind : [ `Page | `Region ];
  frontend : string;
  fingerprint : string;
  members : int array;  (** region member bases; [||] for page entries *)
  base : int;
  psize : int;
  spec_inhibited : bool;
  vliws : int;
  entries : int;
  mtime : float;
      (** last probe hit or install — the LRU clock; 0 if unstattable *)
  status : [ `Ok | `Corrupt of string | `Skipped of string ];
}

(** Files in [dir] that are not cache entries, temp files or the lock
    file — left alone by every store operation, reported so tooling can
    say why. *)
let stray_files dir =
  match Sys.readdir dir with
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           (not (Filename.check_suffix f ".dtc"))
           && (not (Filename.check_suffix f ".tmp"))
           && (not (Filename.check_suffix f ".dtc.bad"))
           && f <> lock_file)
    |> List.sort compare
  | exception Sys_error _ -> []

(** Inspect every entry in [dir]: header fields plus checksum
    validation (payloads are not fully decoded). *)
let list_dir dir =
  List.filter_map
    (fun f ->
      let key = Filename.chop_suffix f ".dtc" in
      let path = Filename.concat dir f in
      let mtime =
        match Unix.stat path with
        | st -> st.Unix.st_mtime
        | exception Unix.Unix_error _ -> 0.
      in
      let blank status =
        Some
          { key; file_bytes = 0; kind = `Page; frontend = "?";
            fingerprint = "?"; members = [||]; base = 0; psize = 0;
            spec_inhibited = false; vliws = 0; entries = 0; mtime; status }
      in
      let parse s = (fst (parse_entry s), String.length s) in
      match Codec.read Fsio.real path parse with
      | `Ok (h, file_bytes) ->
        Some
          { key; file_bytes; kind = h.h_kind; frontend = h.h_frontend;
            fingerprint = h.h_fingerprint; members = h.h_members;
            base = h.h_base; psize = h.h_psize;
            spec_inhibited = h.h_spec_inhibited; vliws = h.h_vliws;
            entries = h.h_entries; mtime; status = `Ok }
      | `Missing -> None  (* evicted since the listing *)
      | `Corrupt msg -> blank (`Corrupt msg)
      | `Skipped msg | `Fault msg -> blank (`Skipped msg))
    (Fsio.files_with_suffix dir ".dtc")

(** Remove every entry and stray temp file in [dir]; returns
    [(removed, skipped)] — skipped counts entry-named paths that could
    not be removed (directories, permissions) plus files that are not
    the store's to delete.  Never raises. *)
let clear_dir dir =
  let all = match Sys.readdir dir with
    | files -> List.filter (fun f -> f <> lock_file) (Array.to_list files)
    | exception Sys_error _ -> []
  in
  let ours, strays =
    List.partition
      (fun f ->
        Filename.check_suffix f ".dtc" || Filename.check_suffix f ".tmp"
        || Filename.check_suffix f ".dtc.bad")
      all
  in
  let removed, unremovable =
    List.fold_left
      (fun (n, k) f ->
        match Sys.remove (Filename.concat dir f) with
        | () -> (n + 1, k)
        | exception Sys_error _ -> (n, k + 1))
      (0, 0) ours
  in
  (removed, unremovable + List.length strays)
