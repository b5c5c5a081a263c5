(* Offline storage checking and repair for every durable store.

   The stores already defend themselves at run time — checksum parse
   ladders, quarantine-on-corrupt, orphan sweeps at open — but a fleet
   operator wants the complement: one pass that walks a tree after an
   incident (full disk, torn power, flaky controller) and says exactly
   which entries are torn, which temp files a dead writer left behind,
   and optionally puts the tree right.  `daisy fsck` drives this.

   One walker per store family:

   - tcache:     *.dtc entries (page + region), *.dtc.bad corpses
   - profile:    *.dpf merge-able profile entries
   - checkpoint: ck-*.dgck snapshot sequences (longest-valid-prefix —
                 a torn snapshot also invalidates everything after it)
   - crash:      crash-*.json / *.folded flight-recorder dumps

   Repair is deliberately conservative, mirroring what the stores do
   under load: a torn entry is set aside as [<file>.bad] (bytes kept
   for the post-mortem; rename falls back to removal on filesystems
   that refuse it), an orphaned temp file is removed, and nothing else
   is touched — foreign files are reported as strays and left alone.
   Every repair re-establishes the store invariant the runtime relies
   on: whatever remains parses clean. *)

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
  r_quarantined : int;     (** .bad corpses already set aside *)
  r_strays : int;          (** foreign files, reported and left alone *)
}

(** A store is clean when nothing is torn and no orphan remains
    (repaired issues count as resolved). *)
let clean r =
  List.for_all (fun i -> i.i_repaired) r.r_torn
  && List.for_all (fun i -> i.i_repaired) r.r_orphans

let issues r = List.length r.r_torn + List.length r.r_orphans

(* Set a torn entry aside as <file>.bad, like the runtime quarantine;
   removal is the fallback for filesystems that refuse the rename. *)
let set_aside path =
  match Sys.rename path (path ^ ".bad") with
  | () -> true
  | exception Sys_error _ -> (
    match Sys.remove path with
    | () -> true
    | exception Sys_error _ -> false)

let drop path =
  match Sys.remove path with () -> true | exception Sys_error _ -> false

let orphan_issues ~dir ~repair =
  List.map
    (fun f ->
      { i_file = f; i_problem = "orphaned temp file";
        i_repaired = repair && drop (Filename.concat dir f) })
    (Fsio.files_with_suffix dir ".tmp")

(* ------------------------------------------------------------------ *)
(* Walkers                                                             *)

let tcache ?(repair = false) dir =
  let infos = if Sys.file_exists dir then Tcache.Store.list_dir dir else [] in
  let torn =
    List.filter_map
      (fun (i : Tcache.Store.info) ->
        match i.status with
        | `Ok -> None
        | `Corrupt msg ->
          let f = i.key ^ ".dtc" in
          Some
            { i_file = f; i_problem = msg;
              i_repaired = repair && set_aside (Filename.concat dir f) }
        | `Skipped msg ->
          (* unreadable or not a file: report, never touch *)
          Some { i_file = i.key ^ ".dtc"; i_problem = msg;
                 i_repaired = false })
      infos
  in
  let ok =
    List.length
      (List.filter (fun (i : Tcache.Store.info) -> i.status = `Ok) infos)
  in
  { r_store = "tcache"; r_dir = dir; r_entries = ok; r_torn = torn;
    r_orphans = orphan_issues ~dir ~repair;
    r_quarantined = List.length (Fsio.files_with_suffix dir ".dtc.bad");
    r_strays = List.length (Tcache.Store.stray_files dir) }

let profile ?(repair = false) dir =
  let infos = if Sys.file_exists dir then Obs.Pstore.list_dir dir else [] in
  let torn =
    List.filter_map
      (fun (i : Obs.Pstore.info) ->
        match i.i_status with
        | `Ok -> None
        | `Corrupt msg ->
          Some
            { i_file = i.i_file; i_problem = msg;
              i_repaired =
                repair && set_aside (Filename.concat dir i.i_file) }
        | `Skipped msg ->
          Some { i_file = i.i_file; i_problem = msg; i_repaired = false })
      infos
  in
  let ok =
    List.length
      (List.filter (fun (i : Obs.Pstore.info) -> i.i_status = `Ok) infos)
  in
  { r_store = "profile"; r_dir = dir; r_entries = ok; r_torn = torn;
    r_orphans = orphan_issues ~dir ~repair;
    r_quarantined = List.length (Fsio.files_with_suffix dir ".bad");
    r_strays = 0 }

(* Checkpoint sequences restore from the longest valid prefix, so a
   torn snapshot makes every later one unreachable: fsck reports the
   whole invalid tail, and repair sets all of it aside so the next
   resume sees exactly the prefix the loader would have used. *)
let checkpoint ?(repair = false) dir =
  let files = Checkpoint.snapshot_files dir in
  let valid = ref 0 and torn = ref [] and broken = ref false in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      match
        if !broken then `Tail
        else
          match Checkpoint.parse_snapshot (Checkpoint.read_file path) with
          | _ -> `Ok
          | exception Tcache.Codec.Corrupt msg -> `Torn msg
          | exception (Sys_error msg) -> `Torn msg
          | exception (Fsio.Fault _ as e) -> `Torn (Fsio.fault_message e)
      with
      | `Ok -> incr valid
      | `Torn msg ->
        broken := true;
        torn :=
          { i_file = f; i_problem = msg;
            i_repaired = repair && set_aside path }
          :: !torn
      | `Tail ->
        torn :=
          { i_file = f; i_problem = "after a torn snapshot (unreachable)";
            i_repaired = repair && set_aside path }
          :: !torn)
    files;
  { r_store = "checkpoint"; r_dir = dir; r_entries = !valid;
    r_torn = List.rev !torn; r_orphans = orphan_issues ~dir ~repair;
    r_quarantined = List.length (Fsio.files_with_suffix dir ".bad");
    r_strays = 0 }

(* Crash dumps are JSON objects (plus .folded flame-graph text); a dump
   is torn when it is unreadable, empty, or visibly truncated (no
   closing brace) — the recorder writes atomically, so any of those
   means a lying filesystem or a pre-fsio writer died mid-dump. *)
let crash ?(repair = false) dir =
  let files = Fsio.files_with_suffix dir ".json" in
  let valid = ref 0 and torn = ref [] in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      match Fsio.real.Fsio.read_file path with
      | exception (Sys_error msg) ->
        torn :=
          { i_file = f; i_problem = msg;
            i_repaired = repair && set_aside path }
          :: !torn
      | exception (Fsio.Fault _ as e) ->
        torn :=
          { i_file = f; i_problem = Fsio.fault_message e;
            i_repaired = repair && set_aside path }
          :: !torn
      | s ->
        let t = String.trim s in
        if String.length t >= 2 && t.[0] = '{'
           && t.[String.length t - 1] = '}'
        then incr valid
        else
          torn :=
            { i_file = f; i_problem = "truncated JSON";
              i_repaired = repair && set_aside path }
            :: !torn)
    files;
  { r_store = "crash"; r_dir = dir; r_entries = !valid;
    r_torn = List.rev !torn; r_orphans = orphan_issues ~dir ~repair;
    r_quarantined = List.length (Fsio.files_with_suffix dir ".bad");
    r_strays = 0 }

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
