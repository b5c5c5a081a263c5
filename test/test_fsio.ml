(* Tests for the pluggable storage layer (lib/fsio) and the stores'
   degradation contracts on top of it:

   - the atomic-commit discipline: a crash at ANY durable step leaves
     the destination either absent or whole, never torn (enumerated
     exhaustively and property-checked over random contents);
   - crash-point enumeration per store: translation cache, profile
     store, checkpoints and the flight recorder each recover to a
     valid prefix from every possible crash offset;
   - graceful degradation: ENOSPC mid-install leaves no partial entry
     (the page survives in the memory overlay), EIO on probe degrades
     to a typed skip instead of raising, a checkpoint storage fault
     becomes a ladder strike;
   - fsck: a hand-torn entry in each store and a dead writer's temp
     file are reported and repaired, leaving the tree clean; a file
     that cannot be read is reported and left where it is. *)

module Store = Tcache.Store
module Pstore = Obs.Pstore
module Flight = Obs.Flight
module Checkpoint = Guard.Checkpoint
module Fsck = Guard.Fsck
module Monitor = Vmm.Monitor
module Wl = Workloads.Wl

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_fsio.%d.%d" (Unix.getpid ()) !n)
    in
    Store.mkdir_p d;
    d

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let listing dir = Array.to_list (Sys.readdir dir) |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The commit primitive                                                *)

(* After a crash at any durable step, the destination file is either
   absent or byte-identical to the contents; anything else in the
   directory is an orphaned temp file fsck knows how to sweep. *)
let check_crash_invariant ~dir ~file ~contents =
  let dst = Filename.concat dir file in
  (match Sys.file_exists dst with
  | false -> ()
  | true ->
    let got = In_channel.with_open_bin dst In_channel.input_all in
    Alcotest.(check string) "destination is whole or absent" contents got);
  List.iter
    (fun f ->
      if f <> file then
        Alcotest.(check bool)
          (Printf.sprintf "leftover %s is an orphan temp" f)
          true
          (Filename.check_suffix f ".tmp"))
    (listing dir)

let commit_steps contents =
  let dir = fresh_dir () in
  let io, inj = Fsio.faulty Fsio.fault_quiet in
  Fsio.commit io ~dir ~file:"entry.bin" contents;
  let n = Fsio.steps inj in
  rm_rf dir;
  n

let test_commit_crash_points () =
  List.iter
    (fun size ->
      let contents = String.init size (fun i -> Char.chr (i land 0xff)) in
      let steps = commit_steps contents in
      Alcotest.(check bool)
        (Printf.sprintf "size %d has durable steps" size)
        true (steps > 0);
      for crash_at = 0 to steps - 1 do
        let dir = fresh_dir () in
        let io, _ =
          Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
        in
        (match Fsio.commit io ~dir ~file:"entry.bin" contents with
        | () ->
          Alcotest.failf "size %d: crash point %d never fired" size crash_at
        | exception Fsio.Crash _ -> ());
        check_crash_invariant ~dir ~file:"entry.bin" ~contents;
        rm_rf dir
      done)
    [ 0; 1; 4095; 4096; 9000 ]

let prop_commit_crash =
  QCheck.Test.make ~name:"commit: any crash point leaves no torn entry"
    ~count:60
    QCheck.(pair (string_of_size QCheck.Gen.(0 -- 12_000)) small_nat)
    (fun (contents, offset) ->
      let steps = commit_steps contents in
      let crash_at = offset mod steps in
      let dir = fresh_dir () in
      let io, _ =
        Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
      in
      let crashed =
        match Fsio.commit io ~dir ~file:"entry.bin" contents with
        | () -> false
        | exception Fsio.Crash _ -> true
      in
      let dst = Filename.concat dir "entry.bin" in
      let whole_or_absent =
        (not (Sys.file_exists dst))
        || In_channel.with_open_bin dst In_channel.input_all = contents
      in
      let only_orphans =
        List.for_all
          (fun f -> f = "entry.bin" || Filename.check_suffix f ".tmp")
          (listing dir)
      in
      rm_rf dir;
      crashed && whole_or_absent && only_orphans)

let test_commit_fault_cleans_temp () =
  let dir = fresh_dir () in
  let io, inj =
    Fsio.faulty { Fsio.fault_quiet with eio_write_rate = 1.0 }
  in
  (match Fsio.commit io ~dir ~file:"entry.bin" "payload" with
  | () -> Alcotest.fail "EIO write must fault"
  | exception Fsio.Fault { cls = Fsio.Eio; _ } -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  Alcotest.(check bool) "the fault was counted" true (Fsio.faults_fired inj > 0);
  Alcotest.(check (list string)) "no temp file survives the fault" []
    (listing dir);
  rm_rf dir

let test_commit_readonly () =
  let dir = fresh_dir () in
  let io, _ = Fsio.faulty { Fsio.fault_quiet with readonly = true } in
  (match Fsio.commit io ~dir ~file:"entry.bin" "payload" with
  | () -> Alcotest.fail "readonly mount must fault"
  | exception Fsio.Fault { cls = Fsio.Readonly; _ } -> ());
  Alcotest.(check (list string)) "nothing written" [] (listing dir);
  rm_rf dir

(* The real backend reads straight through Unix, so an EIO would be
   typed like every other operation's (EIO itself cannot be produced
   here).  A file larger than one [Unix.read] (64 KiB) comes back
   whole; a missing path and a directory stay plain [Sys_error]s. *)
let test_real_read_file () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "big.bin" in
  let contents = String.init 200_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Fsio.commit Fsio.real ~dir ~file:"big.bin" contents;
  Alcotest.(check bool) "large file round-trips" true
    (Fsio.real.read_file path = contents);
  Fsio.commit Fsio.real ~dir ~file:"empty.bin" "";
  Alcotest.(check string) "empty file" ""
    (Fsio.real.read_file (Filename.concat dir "empty.bin"));
  let expect_sys_error what path =
    match Fsio.real.read_file path with
    | _ -> Alcotest.failf "%s: read succeeded" what
    | exception Sys_error _ -> ()
    | exception e ->
      Alcotest.failf "%s: %s, wanted Sys_error" what (Printexc.to_string e)
  in
  expect_sys_error "missing path" (Filename.concat dir "absent.bin");
  expect_sys_error "directory" dir;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Translation cache                                                   *)

let translated_page name =
  let mem, entry =
    Workloads.Wl.instantiate (Workloads.Registry.by_name name)
  in
  let tr = Translator.Translate.create Translator.Params.default mem in
  let page, _ = Translator.Translate.entry tr entry in
  (mem, page)

(* Open + persist under a step-counting quiet injector, so the crash
   run below replays exactly the same durable-step sequence. *)
let tcache_persist ~io dir =
  let store = Store.open_store ~io ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  ignore (Store.persist store ~key page ~spec_inhibited:true);
  key

let test_tcache_crash_points () =
  let steps =
    let dir = fresh_dir () in
    let io, inj = Fsio.faulty Fsio.fault_quiet in
    ignore (tcache_persist ~io dir);
    rm_rf dir;
    Fsio.steps inj
  in
  Alcotest.(check bool) "persist has durable steps" true (steps > 0);
  for crash_at = 0 to steps - 1 do
    let dir = fresh_dir () in
    let io, _ =
      Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
    in
    (match tcache_persist ~io dir with
    | _ -> Alcotest.failf "crash point %d never fired" crash_at
    | exception Fsio.Crash _ -> ());
    (* recovery: reopening with honest io sweeps orphans and every
       surviving entry parses clean — a full hit or a clean miss *)
    let store =
      Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" ()
    in
    let mem, page = translated_page "wc" in
    let bytes = Ppc.Mem.read_string mem page.base page.psize in
    let key = Store.key store ~base:page.base bytes in
    (match Store.probe store ~key with
    | `Hit (page', si) ->
      Alcotest.(check bool) "hit page base" true (page'.base = page.base);
      Alcotest.(check bool) "hit spec flag" true si
    | `Miss -> ()
    | `Corrupt m -> Alcotest.failf "crash %d left a torn entry: %s" crash_at m
    | `Skipped m -> Alcotest.failf "crash %d left a skip: %s" crash_at m);
    List.iter
      (fun (i : Store.info) ->
        match i.status with
        | `Ok -> ()
        | `Corrupt m | `Skipped m ->
          Alcotest.failf "crash %d: %s is not clean: %s" crash_at i.key m)
      (Store.list_dir dir);
    rm_rf dir
  done

let test_tcache_enospc_no_partial () =
  let dir = fresh_dir () in
  let io, inj =
    Fsio.faulty { Fsio.fault_quiet with enospc_rate = 1.0 }
  in
  let store = Store.open_store ~io ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  let mem, page = translated_page "wc" in
  let bytes = Ppc.Mem.read_string mem page.base page.psize in
  let key = Store.key store ~base:page.base bytes in
  ignore (Store.persist store ~key page ~spec_inhibited:true);
  Alcotest.(check bool) "the ENOSPC fired" true (Fsio.faults_fired inj > 0);
  Alcotest.(check int) "store degraded once" 1 (Store.degraded_count store);
  Alcotest.(check int) "entry parked in overlay" 1 (Store.overlay_count store);
  Alcotest.(check (list string)) "no partial entry on disk" []
    (Fsio.files_with_suffix dir ".dtc");
  Alcotest.(check (list string)) "no orphan left behind" []
    (Fsio.files_with_suffix dir ".tmp");
  (* the page is still served, from memory *)
  (match Store.probe store ~key with
  | `Hit (page', _) ->
    Alcotest.(check bool) "overlay hit" true (page'.base = page.base)
  | _ -> Alcotest.fail "overlay must serve the parked page");
  rm_rf dir

let test_tcache_eio_probe_degrades () =
  let dir = fresh_dir () in
  (* persist honestly, then probe through a disk that fails every read *)
  let key = tcache_persist ~io:Fsio.real dir in
  let io, _ = Fsio.faulty { Fsio.fault_quiet with eio_read_rate = 1.0 } in
  let store = Store.open_store ~io ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  (match Store.probe store ~key with
  | `Skipped m ->
    Alcotest.(check bool)
      (Printf.sprintf "typed storage skip (got %S)" m)
      true
      (String.length m >= 8 && String.sub m 0 8 = "storage:")
  | `Hit _ -> Alcotest.fail "EIO read cannot hit"
  | `Miss -> Alcotest.fail "EIO read is not a miss"
  | `Corrupt m -> Alcotest.failf "EIO read is not corruption: %s" m);
  Alcotest.(check bool) "probe degraded the store" true
    (Store.degraded_count store > 0);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Profile store                                                       *)

let sample_profile () =
  let p = Obs.Profile.create ~page_size:4096 () in
  p.runs <- 1;
  let q = Obs.Profile.page p 0x1000 in
  q.entries <- 3;
  q.vliws <- 10;
  Obs.Profile.edge_n p ~src:0x1000 ~dst:0x2000 ~kind:Vmm.Monitor.Etaken 5;
  p

let pstore_save_twice ~io dir =
  let s = Pstore.open_store ~io ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  ignore (Pstore.save s (sample_profile ()));
  ignore (Pstore.save s (sample_profile ()))

let test_pstore_crash_points () =
  let steps =
    let dir = fresh_dir () in
    let io, inj = Fsio.faulty Fsio.fault_quiet in
    pstore_save_twice ~io dir;
    rm_rf dir;
    Fsio.steps inj
  in
  for crash_at = 0 to steps - 1 do
    let dir = fresh_dir () in
    let io, _ =
      Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
    in
    (match pstore_save_twice ~io dir with
    | () -> Alcotest.failf "crash point %d never fired" crash_at
    | exception Fsio.Crash _ -> ());
    let s = Pstore.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
    (match Pstore.load s with
    | `Hit p ->
      Alcotest.(check int) "recovered profile runs" 1 p.Obs.Profile.runs
    | `Miss -> ()
    | `Corrupt m -> Alcotest.failf "crash %d left a torn profile: %s" crash_at m
    | `Skipped m -> Alcotest.failf "crash %d left a skip: %s" crash_at m);
    rm_rf dir
  done

let test_pstore_enospc_degrades () =
  let dir = fresh_dir () in
  let io, _ = Fsio.faulty { Fsio.fault_quiet with enospc_rate = 1.0 } in
  let s = Pstore.open_store ~io ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  ignore (Pstore.save s (sample_profile ()));
  Alcotest.(check int) "save degraded" 1 (Pstore.degraded_count s);
  (* the heat data survives in memory for this process *)
  (match Pstore.load s with
  | `Hit p -> Alcotest.(check int) "memory fallback" 1 p.Obs.Profile.runs
  | _ -> Alcotest.fail "load must serve the in-memory profile");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)

let checkpoint_write_two ~io dir =
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let ck = Checkpoint.attach ~dir ~every:1 ~io ~workload:w.name vmm in
  Ppc.Mem.store32 vmm.mem (Wl.scratch_base + 0x40) 0xBEEF;
  ignore (Checkpoint.write ck ~pc:0x1000);
  Ppc.Mem.store32 vmm.mem (Wl.scratch_base + 0x44) 0xF00D;
  ignore (Checkpoint.write ck ~pc:0x1004);
  vmm

let test_checkpoint_crash_points () =
  let steps =
    let dir = fresh_dir () in
    let io, inj = Fsio.faulty Fsio.fault_quiet in
    ignore (checkpoint_write_two ~io dir);
    rm_rf dir;
    Fsio.steps inj
  in
  for crash_at = 0 to steps - 1 do
    let dir = fresh_dir () in
    let io, _ =
      Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
    in
    (match checkpoint_write_two ~io dir with
    | _ -> Alcotest.failf "crash point %d never fired" crash_at
    | exception Fsio.Crash _ -> ());
    (* the loader restores from the longest valid prefix; it must never
       raise, whatever the crash left behind *)
    (match Checkpoint.load ~dir () with
    | None | Some _ -> ());
    rm_rf dir
  done

let test_checkpoint_fault_is_a_strike () =
  let dir = fresh_dir () in
  let io, _ = Fsio.faulty { Fsio.fault_quiet with enospc_rate = 1.0 } in
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  let events = ref [] in
  Monitor.on_event vmm (fun ev -> events := ev :: !events);
  let ck = Checkpoint.attach ~dir ~every:1 ~io ~workload:w.name vmm in
  Ppc.Mem.store32 vmm.mem (Wl.scratch_base + 0x40) 0xBEEF;
  Alcotest.(check int) "faulted write reports 0 bytes" 0
    (Checkpoint.write ck ~pc:0x1000);
  Alcotest.(check int) "one storage strike" 1 vmm.stats.storage_faults;
  Alcotest.(check bool) "strike degrades the verdict" true
    (Vmm.Run.degraded vmm.stats);
  Alcotest.(check bool) "Storage_fault event emitted" true
    (List.exists
       (function Monitor.Storage_fault _ -> true | _ -> false)
       !events);
  Alcotest.(check (list string)) "no partial snapshot" []
    (listing dir |> List.filter (fun f -> Filename.check_suffix f ".dgck"));
  rm_rf dir

(* A kill -9 mid-snapshot leaves a temp file; the next attach (a
   resume) sweeps it, as the cache and the profile store do at open. *)
let test_checkpoint_sweeps_orphans () =
  let dir = fresh_dir () in
  let orphan = Filename.concat dir ".commit-0-0.tmp" in
  Out_channel.with_open_bin orphan (fun oc ->
      Out_channel.output_string oc "dead writer");
  let w = Workloads.Registry.by_name "wc" in
  let mem, _ = Wl.instantiate w in
  let vmm = Monitor.create mem in
  ignore (Checkpoint.attach ~dir ~every:1 ~workload:w.name vmm);
  Alcotest.(check bool) "orphan swept at attach" false (Sys.file_exists orphan);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let flight_dump ~io dir =
  let f = Flight.create ~capacity:16 ~dir ~io () in
  Flight.push f (Monitor.External_interrupt { cycle = 1 });
  Flight.push f (Monitor.External_interrupt { cycle = 2 });
  (f, Flight.dump f ~reason:"test")

let test_flight_crash_points () =
  let steps =
    let dir = fresh_dir () in
    let io, inj = Fsio.faulty Fsio.fault_quiet in
    ignore (flight_dump ~io dir);
    rm_rf dir;
    Fsio.steps inj
  in
  for crash_at = 0 to steps - 1 do
    let dir = fresh_dir () in
    let io, _ =
      Fsio.faulty { Fsio.fault_quiet with crash_at = Some crash_at }
    in
    (match flight_dump ~io dir with
    | _ -> Alcotest.failf "crash point %d never fired" crash_at
    | exception Fsio.Crash _ -> ());
    (* whatever the crash left, every surviving dump is whole JSON *)
    let report = Fsck.crash dir in
    Alcotest.(check int)
      (Printf.sprintf "crash %d leaves no torn dump" crash_at)
      0
      (List.length report.Fsck.r_torn);
    rm_rf dir
  done

let test_flight_parks_on_fault () =
  let dir = fresh_dir () in
  let io, _ = Fsio.faulty { Fsio.fault_quiet with eio_write_rate = 1.0 } in
  let f, path = flight_dump ~io dir in
  Alcotest.(check bool) "dump reports failure" true (path = None);
  Alcotest.(check bool) "fault counted" true (Flight.io_degraded f > 0);
  Alcotest.(check int) "dump parked in memory" 1
    (List.length (Flight.pending_dumps f));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)

let truncate_to_half path =
  let original = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub original 0 (String.length original / 2)))

(* ck-000000.dgck .. ck-000002.dgck *)
let checkpoint_write_three dir =
  let vmm = checkpoint_write_two ~io:Fsio.real dir in
  let ck = Checkpoint.attach ~dir ~every:1 ~seq:2 ~workload:"wc" vmm in
  ignore (Checkpoint.write ck ~pc:0x1008)

(* One store's entry torn by hand next to a dead writer's temp file:
   fsck reports both, repair resolves both, and afterwards nothing is
   torn, no orphan remains and the torn files sit aside as .bad.  Each
   store is one input: its walker, how many files its tear leaves
   unusable, how it fills and tears a directory, and what must hold
   after the repair. *)
let test_fsck_repairs_torn_entry () =
  let check
      ( store,
        (walk : ?repair:bool -> string -> Fsck.store_report),
        torn, fill, after ) =
    let dir = fresh_dir () in
    fill dir;
    Out_channel.with_open_bin
      (Filename.concat dir ".commit-0-0.tmp")
      (fun oc -> Out_channel.output_string oc "dead writer");
    let says what = store ^ ": " ^ what in
    let before = walk dir in
    Alcotest.(check int) (says "tear reported") torn
      (List.length before.Fsck.r_torn);
    Alcotest.(check int) (says "orphan reported") 1
      (List.length before.Fsck.r_orphans);
    Alcotest.(check bool) (says "not clean before repair") false
      (Fsck.clean before);
    let repaired = walk ~repair:true dir in
    Alcotest.(check bool) (says "repair resolves everything") true
      (Fsck.clean repaired);
    Alcotest.(check int) (says "nothing remains") 0 (Fsck.remaining repaired);
    let after_repair = walk dir in
    Alcotest.(check int) (says "no torn entries remain") 0
      (List.length after_repair.Fsck.r_torn);
    Alcotest.(check int) (says "no orphans remain") 0
      (List.length after_repair.Fsck.r_orphans);
    Alcotest.(check int) (says "the corpse is quarantined") torn
      after_repair.Fsck.r_quarantined;
    after dir;
    rm_rf dir
  in
  List.iter check
    [ ( "tcache", Fsck.tcache, 1,
        (fun dir ->
          let key = tcache_persist ~io:Fsio.real dir in
          truncate_to_half (Filename.concat dir (key ^ ".dtc"))),
        ignore );
      ( "profile", Fsck.profile, 1,
        (fun dir ->
          let s = Pstore.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
          ignore (Pstore.save s (sample_profile ()));
          truncate_to_half (Pstore.path s)),
        ignore );
      (* a torn middle snapshot makes the one after it unreachable: both
         go aside, and the loader then restores the one valid snapshot *)
      ( "checkpoint", Fsck.checkpoint, 2,
        (fun dir ->
          checkpoint_write_three dir;
          truncate_to_half (Filename.concat dir "ck-000001.dgck")),
        fun dir ->
          match Checkpoint.load ~dir () with
          | Some l ->
            Alcotest.(check int) "one valid snapshot restores" 1 l.valid;
            Alcotest.(check int) "nothing left to drop" 0 l.dropped
          | None -> Alcotest.fail "the valid prefix must restore" );
      ( "crash", Fsck.crash, 1,
        (fun dir ->
          match flight_dump ~io:Fsio.real dir with
          | _, Some path -> truncate_to_half path
          | _, None -> Alcotest.fail "the dump must land"),
        ignore ) ]

(* A file fsck cannot read is reported, never renamed: here a directory
   squatting on a snapshot's name.  The snapshot after it is still
   unreachable and goes aside; the directory stays, so one issue
   remains, and [daisy fsck] says exactly that. *)
let test_fsck_leaves_unreadable_snapshot () =
  let dir = fresh_dir () in
  checkpoint_write_three dir;
  let squatted = Filename.concat dir "ck-000001.dgck" in
  Sys.remove squatted;
  Sys.mkdir squatted 0o755;
  let r = Fsck.checkpoint ~repair:true dir in
  Alcotest.(check (list (pair string bool))) "reported, tail set aside"
    [ ("ck-000001.dgck", false); ("ck-000002.dgck", true) ]
    (List.map (fun i -> (i.Fsck.i_file, i.Fsck.i_repaired)) r.Fsck.r_torn);
  Alcotest.(check bool) "the directory stays put" true
    (Sys.is_directory squatted);
  Alcotest.(check bool) "not renamed" false
    (Sys.file_exists (squatted ^ ".bad"));
  Alcotest.(check bool) "not clean" false (Fsck.clean r);
  Alcotest.(check int) "one issue remains" 1 (Fsck.remaining r);
  let daisy =
    Filename.concat
      (Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         "bin")
      "daisy.exe"
  in
  let out = Filename.concat dir "fsck.out" in
  let code =
    Sys.command
      (Filename.quote_command daisy ~stdout:out
         [ "fsck"; "--checkpoint-dir"; dir; "--repair" ])
  in
  Alcotest.(check int) "daisy fsck exits 1" 1 code;
  let last =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.rev |> List.hd
  in
  Alcotest.(check string) "daisy fsck counts what remains"
    "fsck: 1 issues remain" last;
  rm_rf dir

(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fsio"
    [ ( "commit",
        [ Alcotest.test_case "crash-point enumeration" `Quick
            test_commit_crash_points;
          qcheck prop_commit_crash;
          Alcotest.test_case "fault removes temp" `Quick
            test_commit_fault_cleans_temp;
          Alcotest.test_case "readonly mount" `Quick test_commit_readonly;
          Alcotest.test_case "real read_file" `Quick test_real_read_file ] );
      ( "tcache",
        [ Alcotest.test_case "crash-point enumeration" `Quick
            test_tcache_crash_points;
          Alcotest.test_case "ENOSPC mid-install" `Quick
            test_tcache_enospc_no_partial;
          Alcotest.test_case "EIO probe degrades" `Quick
            test_tcache_eio_probe_degrades ] );
      ( "pstore",
        [ Alcotest.test_case "crash-point enumeration" `Quick
            test_pstore_crash_points;
          Alcotest.test_case "ENOSPC degrades to memory" `Quick
            test_pstore_enospc_degrades ] );
      ( "checkpoint",
        [ Alcotest.test_case "crash-point enumeration" `Quick
            test_checkpoint_crash_points;
          Alcotest.test_case "storage fault is a strike" `Quick
            test_checkpoint_fault_is_a_strike;
          Alcotest.test_case "attach sweeps orphans" `Quick
            test_checkpoint_sweeps_orphans ] );
      ( "flight",
        [ Alcotest.test_case "crash-point enumeration" `Quick
            test_flight_crash_points;
          Alcotest.test_case "parks dumps on fault" `Quick
            test_flight_parks_on_fault ] );
      ( "fsck",
        [ Alcotest.test_case "repairs a torn entry" `Quick
            test_fsck_repairs_torn_entry;
          Alcotest.test_case "leaves an unreadable snapshot" `Quick
            test_fsck_leaves_unreadable_snapshot ] ) ]
