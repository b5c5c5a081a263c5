(* Offline storage checking and repair for every durable store.

   The stores already defend themselves at run time — checksum parse
   ladders, quarantine-on-corrupt, orphan sweeps at open — but a fleet
   operator wants the complement: one pass that walks a tree after an
   incident (full disk, torn power, flaky controller) and says exactly
   which entries are torn, which temp files a dead writer left behind,
   and optionally puts the tree right.  `daisy fsck` drives this.

   One walker serves every store; each brings its file suffix and the
   check its own parser makes:

   - tcache:     *.dtc entries (page + region); foreign files counted
   - profile:    *.dpf merge-able profile entries
   - checkpoint: ck-*.dgck snapshot sequences (longest-valid-prefix —
                 a torn snapshot also invalidates everything after it)
   - crash:      crash-*.json flight-recorder dumps

   Repair is deliberately conservative, mirroring what the stores do
   under load: a torn entry is set aside as [<file>.bad] (bytes kept
   for the post-mortem; {!Fsio.set_aside} falls back to removal on
   filesystems that refuse the rename), an orphaned temp file is
   removed, and nothing else is touched — a file that cannot be read
   (I/O error, storage fault, a directory on an entry's name) is
   reported and left where it is, and so are foreign files.  Every
   repair re-establishes the store invariant the runtime relies on:
   whatever remains parses clean. *)

type issue = {
  i_file : string;     (** basename within the store directory *)
  i_problem : string;
  i_repaired : bool;
}

type store_report = {
  r_store : string;    (** "tcache" | "profile" | "checkpoint" | "crash" *)
  r_dir : string;
  r_entries : int;     (** entries that parse clean *)
  r_torn : issue list;     (** corrupt / truncated entries *)
  r_orphans : issue list;  (** dead writers' temp files *)
  r_quarantined : int;     (** <suffix>.bad corpses already set aside *)
  r_strays : int;          (** foreign files, reported and left alone *)
}

(** A store is clean when nothing is torn and no orphan remains
    (repaired issues count as resolved). *)
let clean r =
  List.for_all (fun i -> i.i_repaired) r.r_torn
  && List.for_all (fun i -> i.i_repaired) r.r_orphans

(** Every issue found, repaired or not. *)
let issues r = List.length r.r_torn + List.length r.r_orphans

(** Issues the walk left standing. *)
let remaining r =
  List.length
    (List.filter (fun i -> not i.i_repaired) (r.r_torn @ r.r_orphans))

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)

(* Each file ending in [suffix] is read through the shared reader and
   judged by [check], which raises {!Tcache.Codec.Corrupt}.  With
   [prefix] (checkpoints restore the longest valid prefix) a bad file
   makes every later one unreachable, and those go aside too, so the
   next resume sees exactly the prefix the loader would have used. *)
let walk ~store ~suffix ~check ?(prefix = false) ?(strays = 0) ~repair dir =
  let entries = ref 0 and torn = ref [] and broken = ref false in
  let report ?(bad = false) f problem =
    let path = Filename.concat dir f in
    torn :=
      { i_file = f; i_problem = problem;
        i_repaired = bad && repair && Fsio.set_aside Fsio.real path }
      :: !torn
  in
  List.iter
    (fun f ->
      match Tcache.Codec.read Fsio.real (Filename.concat dir f) check with
      | `Missing -> ()  (* gone since the listing *)
      | (`Ok () | `Corrupt _) when !broken ->
        report ~bad:true f "after a torn snapshot (unreachable)"
      | `Ok () -> incr entries
      | `Corrupt msg ->
        broken := prefix;
        report ~bad:true f msg
      | `Skipped msg | `Fault msg ->
        broken := prefix;
        report f msg)
    (Fsio.files_with_suffix dir suffix);
  let orphans = Fsio.files_with_suffix dir ".tmp" in
  if repair then ignore (Fsio.sweep_tmp Fsio.real dir);
  let swept f = repair && not (Sys.file_exists (Filename.concat dir f)) in
  { r_store = store; r_dir = dir; r_entries = !entries;
    r_torn = List.rev !torn;
    r_orphans =
      List.map
        (fun f ->
          { i_file = f; i_problem = "orphaned temp file";
            i_repaired = swept f })
        orphans;
    r_quarantined = List.length (Fsio.files_with_suffix dir (suffix ^ ".bad"));
    r_strays = strays }

let tcache ?(repair = false) dir =
  walk ~store:"tcache" ~suffix:".dtc" ~repair dir
    ~check:(fun s -> ignore (Tcache.Store.parse_entry s))
    ~strays:(List.length (Tcache.Store.stray_files dir))

let profile ?(repair = false) dir =
  walk ~store:"profile" ~suffix:Obs.Pstore.suffix ~repair dir
    ~check:(fun s -> ignore (Obs.Pstore.decode s))

let checkpoint ?(repair = false) dir =
  walk ~store:"checkpoint" ~suffix:".dgck" ~prefix:true ~repair dir
    ~check:(fun s -> ignore (Checkpoint.parse_snapshot s))

(* Crash dumps are JSON objects (plus .folded flame-graph text); a dump
   is torn when it is empty or visibly truncated (no closing brace) —
   the recorder writes atomically, so either means a lying filesystem
   or a pre-fsio writer died mid-dump. *)
let crash ?(repair = false) dir =
  walk ~store:"crash" ~suffix:".json" ~repair dir ~check:(fun s ->
      let t = String.trim s in
      let n = String.length t in
      if n < 2 || t.[0] <> '{' || t.[n - 1] <> '}' then
        Tcache.Codec.corrupt "truncated JSON")

(* ------------------------------------------------------------------ *)
(* The whole tree                                                      *)

(** Walk every store directory given; [repair] sets torn entries aside
    and removes orphans.  Missing directories report as empty clean
    stores — absence is not corruption. *)
let run ?(repair = false) ?tcache_dir ?profile_dir ?checkpoint_dir ?crash_dir
    () =
  List.filter_map Fun.id
    [ Option.map (tcache ~repair) tcache_dir;
      Option.map (profile ~repair) profile_dir;
      Option.map (checkpoint ~repair) checkpoint_dir;
      Option.map (crash ~repair) crash_dir ]

let all_clean reports = List.for_all clean reports

let report_json (r : store_report) =
  let issue i =
    Obs.Json.Obj
      [ ("file", Obs.Json.Str i.i_file);
        ("problem", Obs.Json.Str i.i_problem);
        ("repaired", Obs.Json.Bool i.i_repaired) ]
  in
  Obs.Json.Obj
    [ ("store", Obs.Json.Str r.r_store);
      ("dir", Obs.Json.Str r.r_dir);
      ("entries", Obs.Json.Int r.r_entries);
      ("torn", Obs.Json.Arr (List.map issue r.r_torn));
      ("orphans", Obs.Json.Arr (List.map issue r.r_orphans));
      ("quarantined", Obs.Json.Int r.r_quarantined);
      ("strays", Obs.Json.Int r.r_strays);
      ("clean", Obs.Json.Bool (clean r)) ]

let to_json reports =
  Obs.Json.Obj
    [ ("reports", Obs.Json.Arr (List.map report_json reports));
      ("clean", Obs.Json.Bool (all_clean reports)) ]

let pp ppf (r : store_report) =
  Format.fprintf ppf "%-10s %-28s %4d ok, %d torn, %d orphans" r.r_store
    r.r_dir r.r_entries (List.length r.r_torn)
    (List.length r.r_orphans);
  if r.r_quarantined > 0 then
    Format.fprintf ppf ", %d quarantined" r.r_quarantined;
  if r.r_strays > 0 then Format.fprintf ppf ", %d strays" r.r_strays;
  List.iter
    (fun i ->
      Format.fprintf ppf "@,  torn   %s: %s%s" i.i_file i.i_problem
        (if i.i_repaired then "  [set aside]" else ""))
    r.r_torn;
  List.iter
    (fun i ->
      Format.fprintf ppf "@,  orphan %s%s" i.i_file
        (if i.i_repaired then "  [removed]" else ""))
    r.r_orphans
