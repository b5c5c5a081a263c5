(* Tests for the multi-tenant serve layer and the concurrency it leans
   on: the domain pool, the domain-safe metrics registry, the per-key
   translate gate, the store under a multi-domain hammer (no
   corruption, no duplicate translation per content key, stable entry
   counts), LRU eviction with session pinning, whole fleets over a
   shared cache, and the daemon's socket protocol end to end. *)

module Store = Tcache.Store
module Translate = Translator.Translate
module Metrics = Obs.Metrics

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_serve.%d.%d" (Unix.getpid ()) !n)
    in
    Store.mkdir_p d;
    d

let rm_rf dir =
  ignore (Store.clear_dir dir);
  (try Sys.remove (Filename.concat dir ".dtclock") with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

(* Every row of the VMM's counter table is a top-level key of the JSON
   object [json], under the table's name. *)
let check_every_counter what json =
  let j = Obs.Json.parse json in
  List.iter
    (fun name ->
      Alcotest.(check bool) (what ^ " carries " ^ name) true
        (Option.is_some (Obs.Json.member name j)))
    (List.map (fun (r : int Vmm.Monitor.row) -> r.name) Vmm.Monitor.counters
    @ List.map (fun (r : float Vmm.Monitor.row) -> r.name) Vmm.Monitor.timings)

(* --- the domain pool ----------------------------------------------- *)

let test_pool_runs_everything () =
  let pool = Serve.Pool.create ~domains:4 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 200 do
    Serve.Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Serve.Pool.drain pool;
  Alcotest.(check int) "every job ran" 200 (Atomic.get hits);
  (* a raising job is contained and the pool keeps going *)
  Serve.Pool.submit pool (fun () -> failwith "boom");
  Serve.Pool.submit pool (fun () -> Atomic.incr hits);
  Serve.Pool.drain pool;
  Alcotest.(check int) "pool survives a raising job" 201 (Atomic.get hits);
  Serve.Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown refused"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Serve.Pool.submit pool (fun () -> ()))

(* A job that occupies a runner until released — the scaffolding for
   every bounded-queue test below. *)
let blocker () =
  let release = Atomic.make false and started = Atomic.make false in
  let job () =
    Atomic.set started true;
    while not (Atomic.get release) do
      ignore (Unix.select [] [] [] 0.002)
    done
  in
  let wait_started () =
    while not (Atomic.get started) do
      ignore (Unix.select [] [] [] 0.002)
    done
  in
  (job, wait_started, fun () -> Atomic.set release true)

let test_pool_bounded_queue () =
  let pool = Serve.Pool.create ~queue_cap:2 ~domains:1 () in
  let job, wait_started, release = blocker () in
  Serve.Pool.submit pool job;
  wait_started ();
  let ran = Atomic.make 0 and cancelled = Atomic.make 0 in
  let submit () =
    Serve.Pool.try_submit
      ~cancel:(fun () -> Atomic.incr cancelled)
      pool
      (fun () -> Atomic.incr ran)
  in
  Alcotest.(check bool) "first queued" true (submit () = `Accepted);
  Alcotest.(check bool) "second queued" true (submit () = `Accepted);
  (match submit () with
  | `Busy d -> Alcotest.(check int) "busy reports the depth" 2 d
  | `Accepted | `Closed -> Alcotest.fail "expected `Busy at capacity");
  Alcotest.(check int) "depth counts queued only" 2 (Serve.Pool.depth pool);
  Alcotest.(check int) "active counts running only" 1 (Serve.Pool.active pool);
  release ();
  Serve.Pool.drain pool;
  Alcotest.(check int) "admitted jobs all ran" 2 (Atomic.get ran);
  Serve.Pool.shutdown pool;
  Alcotest.(check bool) "closed after shutdown" true (submit () = `Closed);
  Alcotest.(check int) "no spurious cancels" 0 (Atomic.get cancelled)

let test_pool_shutdown_cancels_queued () =
  let pool = Serve.Pool.create ~domains:1 () in
  let job, wait_started, release = blocker () in
  Serve.Pool.submit pool job;
  wait_started ();
  let ran = Atomic.make 0 and cancelled = Atomic.make 0 in
  for _ = 1 to 5 do
    Serve.Pool.submit
      ~cancel:(fun () -> Atomic.incr cancelled)
      pool
      (fun () -> Atomic.incr ran)
  done;
  (* shutdown joins the runner, which is parked in [job]; release it
     from a helper thread so the join can complete *)
  let t =
    Thread.create
      (fun () ->
        ignore (Unix.select [] [] [] 0.05);
        release ())
      ()
  in
  Serve.Pool.shutdown pool;
  Thread.join t;
  Alcotest.(check int) "queued jobs were not run" 0 (Atomic.get ran);
  Alcotest.(check int) "every queued job saw its cancel" 5
    (Atomic.get cancelled)

(* --- the domain-safe metrics registry ------------------------------ *)

let test_metrics_domain_safe () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  let g = Metrics.gauge m "g" in
  let h = Metrics.histogram m ~buckets:[ 1.; 10.; 100. ] "h" in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.Counter.inc c;
              Metrics.Gauge.set g (float_of_int i);
              Metrics.Histogram.observe h (float_of_int ((d * i) mod 150))
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no increment lost" (4 * per_domain)
    (Metrics.Counter.value c);
  Alcotest.(check int) "no observation lost" (4 * per_domain) h.Metrics.Histogram.count

(* --- the translate gate -------------------------------------------- *)

let test_gate_coalesces () =
  let shared = Serve.Shared.create ~dir:(fresh_dir ()) () in
  let translated = Atomic.make 0 in
  let attempts = 64 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to attempts do
              match Serve.Shared.gate shared ~page:0 ~key:"k" with
              | `Proceed ->
                Atomic.incr translated;
                (* hold the gate long enough that the other domains
                   actually pile up on it *)
                ignore (Unix.select [] [] [] 0.001);
                Serve.Shared.release shared ~page:0 ~key:"k" ~ok:true
              | `Waited -> ()
            done))
  in
  List.iter Domain.join ds;
  let s = Serve.Shared.stats shared in
  Alcotest.(check int) "wins == translations" (Atomic.get translated) s.gate_wins;
  Alcotest.(check int) "every attempt accounted" (4 * attempts)
    (s.gate_wins + s.gate_waits);
  Alcotest.(check bool) "storm actually coalesced" true (s.gate_waits > 0);
  Alcotest.(check int) "nothing left in flight" 0 s.inflight_keys

let test_gate_failure_releases_waiters () =
  let shared = Serve.Shared.create ~dir:(fresh_dir ()) () in
  Alcotest.(check bool) "winner proceeds" true
    (Serve.Shared.gate shared ~page:0 ~key:"k" = `Proceed);
  let waited = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        match Serve.Shared.gate shared ~page:0 ~key:"k" with
        | `Waited -> Atomic.set waited true
        | `Proceed -> ())
  in
  ignore (Unix.select [] [] [] 0.05);
  (* the winner dies without installing; the waiter must still wake *)
  Serve.Shared.release shared ~page:0 ~key:"k" ~ok:false;
  Domain.join d;
  Alcotest.(check bool) "waiter woke after failed release" true
    (Atomic.get waited);
  Alcotest.(check int) "failure counted" 1
    (Serve.Shared.stats shared).gate_failures;
  (* and the key is free again for a retry *)
  Alcotest.(check bool) "key reusable" true
    (Serve.Shared.gate shared ~page:0 ~key:"k" = `Proceed);
  Serve.Shared.release shared ~page:0 ~key:"k" ~ok:true

(* --- the store under a multi-domain hammer (the satellite) --------- *)

let translated_page () =
  let mem, entry =
    Workloads.Wl.instantiate (Workloads.Registry.by_name "wc")
  in
  let tr = Translate.create Translator.Params.default mem in
  fst (Translate.entry tr entry)

let test_store_hammer () =
  let dir = fresh_dir () in
  let shared = Serve.Shared.create ~dir () in
  let page = translated_page () in
  let n_keys = 8 and n_domains = 4 and iters = 50 in
  (* distinct synthetic page contents -> distinct content keys; every
     domain cycles over the same overlapping key set *)
  let probe_store =
    Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"hammer-fp" ()
  in
  let keys =
    Array.init n_keys (fun i ->
        Store.key probe_store ~base:page.Translate.base
          (Printf.sprintf "synthetic page %d" i))
  in
  let translations = Array.init n_keys (fun _ -> Atomic.make 0) in
  let anomalies = Atomic.make 0 in
  let ds =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            (* each domain opens its OWN handle on the shared dir —
               cross-handle safety is the point *)
            let store =
              Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"hammer-fp" ()
            in
            for i = 0 to iters - 1 do
              let k = (i + d) mod n_keys in
              let key = keys.(k) in
              match Store.probe store ~key with
              | `Hit (p, _) ->
                if not (p.Translate.base = page.Translate.base) then
                  Atomic.incr anomalies
              | `Corrupt _ | `Skipped _ -> Atomic.incr anomalies
              | `Miss -> (
                match Serve.Shared.gate shared ~page:k ~key with
                | `Proceed -> (
                  (* the miss may be stale — re-probe under ownership,
                     exactly like the VMM's gate path does *)
                  match Store.probe store ~key with
                  | `Hit _ ->
                    Serve.Shared.release shared ~page:k ~key ~ok:true
                  | `Miss ->
                    Atomic.incr translations.(k);
                    ignore
                      (Store.persist store ~key page ~spec_inhibited:false);
                    Serve.Shared.release shared ~page:k ~key ~ok:true
                  | `Corrupt _ | `Skipped _ ->
                    Atomic.incr anomalies;
                    Serve.Shared.release shared ~page:k ~key ~ok:false)
                | `Waited -> (
                  (* the winner released after its persist: we must
                     see a whole entry now, never a torn one *)
                  match Store.probe store ~key with
                  | `Hit _ -> ()
                  | `Miss | `Corrupt _ | `Skipped _ ->
                    Atomic.incr anomalies))
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no corruption, no torn reads" 0
    (Atomic.get anomalies);
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "key %d translated exactly once" i)
        1 (Atomic.get c))
    translations;
  Alcotest.(check int) "entry count stable" n_keys
    (List.length (Fsio.files_with_suffix dir ".dtc"));
  List.iter
    (fun (info : Store.info) ->
      Alcotest.(check bool) ("entry parses: " ^ info.key) true
        (info.status = `Ok))
    (Store.list_dir dir);
  rm_rf dir

(* --- LRU eviction with pinning ------------------------------------- *)

let test_budget_eviction_and_pinning () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"evict-fp" () in
  let page = translated_page () in
  let key i = Store.key store ~base:page.Translate.base (string_of_int i) in
  let bytes = ref 0 in
  for i = 0 to 2 do
    bytes := Store.persist store ~key:(key i) page ~spec_inhibited:false
  done;
  (* stagger mtimes: entry 0 oldest, entry 2 newest *)
  List.iteri
    (fun i k ->
      let t = Unix.time () -. float_of_int (300 - (i * 100)) in
      Unix.utimes (Store.path_of store k) t t)
    [ key 0; key 1; key 2 ];
  (* budget for exactly one entry, middle key pinned: both unpinned
     entries go, oldest included; the pinned one survives *)
  let r =
    Store.enforce_budget ~pinned:(fun k -> k = key 1) store ~budget:!bytes
  in
  Alcotest.(check int) "two cast out" 2 r.Store.evicted;
  Alcotest.(check bool) "budget met" false r.Store.pinned_over;
  Alcotest.(check (list string)) "pinned entry survived"
    [ key 1 ^ ".dtc" ]
    (Fsio.files_with_suffix dir ".dtc");
  (* unreachable budget: the pin wins over the budget and says so *)
  let r = Store.enforce_budget ~pinned:(fun k -> k = key 1) store ~budget:0 in
  Alcotest.(check int) "nothing evictable" 0 r.Store.evicted;
  Alcotest.(check bool) "reported as pinned-over" true r.Store.pinned_over;
  rm_rf dir

let test_probe_refreshes_lru () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir ~frontend:"ppc" ~fingerprint:"lru-fp" () in
  let page = translated_page () in
  let key i = Store.key store ~base:page.Translate.base (string_of_int i) in
  let bytes = ref 0 in
  for i = 0 to 1 do
    bytes := Store.persist store ~key:(key i) page ~spec_inhibited:false
  done;
  let old = Unix.time () -. 500. in
  Unix.utimes (Store.path_of store (key 0)) old old;
  Unix.utimes (Store.path_of store (key 1)) (old +. 100.) (old +. 100.);
  (* a hit on the oldest entry promotes it; the other entry is now the
     LRU victim *)
  (match Store.probe store ~key:(key 0) with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "expected a hit");
  ignore (Store.enforce_budget store ~budget:!bytes);
  Alcotest.(check (list string)) "recently-probed entry survived"
    [ key 0 ^ ".dtc" ]
    (Fsio.files_with_suffix dir ".dtc");
  rm_rf dir

(* --- fleets over a shared cache ------------------------------------ *)

let test_fleet_cold_then_warm () =
  let dir = fresh_dir () in
  let pool = Serve.Pool.create ~domains:4 () in
  let shared = Serve.Shared.create ~dir () in
  let cold, outcomes =
    Serve.Fleet.run ~pool ~shared ~sessions:8 [ "wc" ]
  in
  Alcotest.(check int) "cold: all verified" 0 cold.Serve.Fleet.failures;
  Alcotest.(check int) "cold: ids distinct" 8
    (List.length
       (List.sort_uniq compare
          (List.map (fun (o : Serve.Session.outcome) -> o.id) outcomes)));
  (* the gate made the unique page set the whole fleet's translation
     bill: what one session translates alone bounds what eight did *)
  let solo = (Vmm.Run.run (Workloads.Registry.by_name "wc")).pages_translated in
  Alcotest.(check bool)
    (Printf.sprintf "cold: %d pages for the fleet <= %d for one session"
       cold.pages_translated solo)
    true
    (cold.Serve.Fleet.pages_translated <= solo);
  let warm, _ =
    Serve.Fleet.run ~first_id:8 ~pool ~shared ~sessions:8 [ "wc" ]
  in
  Serve.Pool.shutdown pool;
  Alcotest.(check int) "warm: all verified" 0 warm.Serve.Fleet.failures;
  Alcotest.(check int) "warm: zero pages retranslated" 0
    warm.Serve.Fleet.pages_translated;
  Alcotest.(check int) "warm: zero misses" 0
    warm.Serve.Fleet.counters.tcache_misses;
  Alcotest.(check (float 0.0001)) "warm: hit rate 1.0" 1.0
    warm.Serve.Fleet.hit_rate;
  Alcotest.(check int) "warm: gate never engaged" 0 warm.Serve.Fleet.gate_wins;
  Alcotest.(check int) "no pins leak" 0
    (Serve.Shared.stats shared).pinned_keys;
  rm_rf dir

(* --- session supervision: typed failures, clean teardown ----------- *)

let test_session_typed_failures () =
  let dir = fresh_dir () in
  let shared = Serve.Shared.create ~dir () in
  (* unknown workload: a typed Crash outcome, never an exception *)
  let o = Serve.Session.run ~shared ~id:0 "no-such-workload" in
  (match o.result with
  | Error (Serve.Session.Crash _) -> ()
  | _ -> Alcotest.fail "expected Crash for an unknown workload");
  (* a deadline that expired in the queue: typed, and nothing ran *)
  let o =
    Serve.Session.run
      ~deadline_at:(Unix.gettimeofday () -. 1.)
      ~shared ~id:1 "wc"
  in
  (match o.result with
  | Error (Serve.Session.Deadline _) -> ()
  | _ -> Alcotest.fail "expected Deadline for a pre-expired budget");
  Alcotest.(check (float 0.001)) "pre-expired session did no work" 0. o.seconds;
  (* an in-flight budget: the watchdog unwinds at a commit boundary;
     the instrument slows every boundary down so the budget must trip
     regardless of host speed *)
  let o =
    Serve.Session.run
      ~deadline_at:(Unix.gettimeofday () +. 0.02)
      ~instrument:(fun vmm ->
        Vmm.Monitor.on_tick vmm (fun ~pc:_ ->
            ignore (Unix.select [] [] [] 0.002)))
      ~shared ~id:2 "wc"
  in
  (match o.result with
  | Error (Serve.Session.Deadline s) ->
    Alcotest.(check bool) "deadline carries elapsed seconds" true (s > 0.)
  | _ -> Alcotest.fail "expected Deadline from the in-flight watchdog");
  (* whatever the failure, no session leaks pins into the coordinator *)
  Alcotest.(check int) "no pins leaked by failed sessions" 0
    (Serve.Shared.stats shared).pinned_keys;
  Alcotest.(check int) "no gates left in flight" 0
    (Serve.Shared.stats shared).inflight_keys;
  rm_rf dir

(* --- corrupt-entry self-healing (the satellite) -------------------- *)

let test_fleet_corrupt_entry_self_heals () =
  let dir = fresh_dir () in
  let pool = Serve.Pool.create ~domains:4 () in
  let shared = Serve.Shared.create ~dir () in
  let cold, _ = Serve.Fleet.run ~pool ~shared ~sessions:4 [ "wc" ] in
  Alcotest.(check int) "cold fleet clean" 0 cold.Serve.Fleet.failures;
  (* flip one bit in the middle of an installed entry on disk *)
  let victim = List.hd (Fsio.files_with_suffix dir ".dtc") in
  let path = Filename.concat dir victim in
  let b =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (* a warm fleet over the poisoned cache: the first prober quarantines
     the entry, the gate winner retranslates, nobody fails *)
  let warm, _ = Serve.Fleet.run ~first_id:4 ~pool ~shared ~sessions:8 [ "wc" ] in
  Alcotest.(check int) "corruption surfaced to no session" 0
    warm.Serve.Fleet.failures;
  Alcotest.(check bool) "poisoned entry was quarantined" true
    (warm.Serve.Fleet.counters.tcache_quarantined >= 1);
  Alcotest.(check bool) "gate winner retranslated the page" true
    (warm.Serve.Fleet.pages_translated >= 1);
  Alcotest.(check bool) "quarantine file set aside for ops" true
    (Fsio.files_with_suffix dir ".dtc.bad" <> []);
  (* healed: the next fleet runs fully warm again *)
  let healed, _ =
    Serve.Fleet.run ~first_id:12 ~pool ~shared ~sessions:4 [ "wc" ]
  in
  Serve.Pool.shutdown pool;
  Alcotest.(check int) "healed fleet clean" 0 healed.Serve.Fleet.failures;
  Alcotest.(check int) "healed fleet retranslates nothing" 0
    healed.Serve.Fleet.pages_translated;
  rm_rf dir

(* --- the chaos harness --------------------------------------------- *)

let test_chaos_invariants () =
  let dir = fresh_dir () in
  let r, outcomes =
    Serve.Chaos.run ~dir
      { Serve.Chaos.default with
        sessions = 16; domains = 4; queue_cap = 2; seed = 11;
        (* aggressive tier-2 promotion inside every session: the
           cocktail's faults must also be absorbed while superblock
           regions are live *)
        tier2 =
          Some
            { Obs.Tier.default with
              min_heat = 2_000; edge_threshold = 50 } }
  in
  (match Serve.Chaos.verdict r with
  | `Clean -> ()
  | `Violations v ->
    let details =
      List.filter_map
        (fun (o : Serve.Session.outcome) ->
          match o.result with
          | Error f ->
            Some
              (Printf.sprintf "#%d %s: %s" o.id
                 (Serve.Session.failure_class f)
                 (Serve.Session.failure_detail f))
          | Ok _ -> None)
        outcomes
    in
    Alcotest.fail
      ("chaos contract violated: " ^ String.concat "; " v ^ " ["
      ^ String.concat " | " details ^ "]"));
  Alcotest.(check bool) "cocktail actually fired" true
    (r.Serve.Fleet.injected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tight queue cap actually shed (sheds=%d)"
       r.Serve.Fleet.sheds)
    true
    (r.Serve.Fleet.sheds > 0);
  Alcotest.(check bool) "shed submissions were retried in" true
    (r.Serve.Fleet.retries > 0);
  check_every_counter "chaos report"
    (Obs.Json.to_string (Serve.Fleet.report_json r));
  rm_rf dir

(* A crash dump written mid-run reads the counter table at dump time. *)
let test_crash_dump_counters () =
  let dir = fresh_dir () in
  let flight = Obs.Flight.create ~dir () in
  let mem, entry =
    Workloads.Wl.instantiate (Workloads.Registry.by_name "wc")
  in
  let vmm = Vmm.Monitor.create mem in
  Obs.Bridge.attach (Obs.Bridge.create ~flight ()) vmm;
  Alcotest.(check (option int)) "stopped mid-run" None
    (Vmm.Monitor.run vmm ~entry ~fuel:5_000);
  (match Obs.Flight.dump flight ~reason:"test" with
  | Some path ->
    let d =
      Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all)
    in
    let counters = Option.get (Obs.Json.member "counters" d) in
    check_every_counter "crash dump" (Obs.Json.to_string counters);
    Alcotest.(check (option int)) "vliws as of the dump"
      (Some vmm.stats.vliws)
      (Option.bind (Obs.Json.member "vliws" counters) Obs.Json.to_int);
    Sys.remove path
  | None -> Alcotest.fail "dump not written");
  rm_rf dir

(* --- the daemon over its socket ------------------------------------ *)

let test_server_roundtrip () =
  let dir = fresh_dir () in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_test_serve.%d.sock" (Unix.getpid ()))
  in
  let server =
    Thread.create
      (fun () ->
        Serve.Server.serve ~domains:2 ~socket_path ~dir ())
      ()
  in
  Alcotest.(check bool) "daemon came up" true
    (Serve.Client.wait_ready ~timeout:10. ~socket_path ());
  let ok req =
    match Serve.Client.request ~socket_path req with
    | Serve.Client.Ok_json payload -> payload
    | Serve.Client.Err { cls; detail } ->
      Alcotest.fail (Printf.sprintf "%s -> ERR %s %s" req cls detail)
  in
  let contains hay needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check string) "ping" {|"pong"|} (ok "PING");
  let run = ok "RUN wc" in
  Alcotest.(check bool) "run reports success" true
    (contains run {|"ok":true|});
  check_every_counter "RUN reply" run;
  let fleet = ok "FLEET 4 wc" in
  Alcotest.(check bool) "fleet runs warm off the RUN's entries" true
    (contains fleet {|"pages_translated":0|});
  check_every_counter "FLEET reply" fleet;
  Alcotest.(check bool) "stats sees the sessions" true
    (contains (ok "STATS") {|"sessions_started":5|});
  (match Serve.Client.request ~socket_path "NOSUCH" with
  | Serve.Client.Err { cls; _ } ->
    Alcotest.(check string) "unknown command is a proto error" "proto" cls
  | Serve.Client.Ok_json _ -> Alcotest.fail "unknown command accepted");
  (* a RUN whose deadline passed while queued gets a typed deadline
     failure, never a hang or an untyped crash *)
  (match Serve.Client.request ~socket_path "RUN wc 0" with
  | Serve.Client.Err { cls; _ } ->
    Alcotest.(check string) "expired budget is a deadline error" "deadline"
      cls
  | Serve.Client.Ok_json _ -> Alcotest.fail "0ms deadline reported success");
  let health = ok "HEALTH" in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("HEALTH carries " ^ field) true
        (contains health ("\"" ^ field ^ "\":")))
    [ "queue_depth"; "inflight_sessions"; "sheds"; "deadline_failures";
      "crash_failures"; "quarantines"; "tcache_quarantined" ];
  Alcotest.(check bool) "HEALTH counted the deadline failure" true
    (contains health {|"deadline_failures":1|});
  check_every_counter "HEALTH" health;
  ignore (ok "SHUTDOWN");
  Thread.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket_path);
  rm_rf dir

let test_server_sheds_and_client_retries () =
  let dir = fresh_dir () in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_test_shed.%d.sock" (Unix.getpid ()))
  in
  (* queue_cap 0: every RUN sheds — deterministic busy replies *)
  let server =
    Thread.create
      (fun () ->
        Serve.Server.serve ~domains:1 ~queue_cap:0 ~socket_path ~dir ())
      ()
  in
  Alcotest.(check bool) "daemon came up" true
    (Serve.Client.wait_ready ~timeout:10. ~socket_path ());
  (match Serve.Client.request ~socket_path "RUN wc" with
  | Serve.Client.Err { cls = "busy"; detail } ->
    (match
       Serve.Client.retry_after_s (Serve.Client.Err { cls = "busy"; detail })
     with
    | Some s -> Alcotest.(check bool) "retry hint >= 25ms" true (s >= 0.025)
    | None -> Alcotest.fail ("busy without parseable hint: " ^ detail))
  | Serve.Client.Err { cls; _ } -> Alcotest.fail ("expected busy, got " ^ cls)
  | Serve.Client.Ok_json _ -> Alcotest.fail "cap-0 daemon accepted a RUN");
  (* the retry helper keeps retrying busy replies, then gives up with
     the last shed reply rather than raising *)
  (match
     Serve.Client.request_retry
       ~policy:
         { Serve.Retry.attempts = 3; base_s = 0.002; max_s = 0.01;
           multiplier = 2.0; jitter = 0.5 }
       ~seed:42 ~socket_path "RUN wc"
   with
  | Serve.Client.Err { cls = "busy"; _ } -> ()
  | _ -> Alcotest.fail "expected busy after exhausted retries");
  (* every shed was counted; PING and HEALTH still answer instantly *)
  (match Serve.Client.request ~socket_path "HEALTH" with
  | Serve.Client.Ok_json payload ->
    let contains needle =
      let n = String.length needle in
      let rec scan i =
        i + n <= String.length payload
        && (String.sub payload i n = needle || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool) "sheds counted (>= 4)" true
      (contains {|"sheds":4|} || contains {|"sheds":5|}
      || contains {|"sheds":6|})
  | _ -> Alcotest.fail "HEALTH failed under shedding");
  (match Serve.Client.request ~socket_path "SHUTDOWN" with
  | Serve.Client.Ok_json _ -> ()
  | _ -> Alcotest.fail "SHUTDOWN failed");
  Thread.join server;
  rm_rf dir

let test_server_shutdown_wakes_queued () =
  let dir = fresh_dir () in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisy_test_wake.%d.sock" (Unix.getpid ()))
  in
  let server =
    Thread.create
      (fun () -> Serve.Server.serve ~domains:1 ~socket_path ~dir ())
      ()
  in
  Alcotest.(check bool) "daemon came up" true
    (Serve.Client.wait_ready ~timeout:10. ~socket_path ());
  (* occupy the single domain with a fleet, stack RUNs behind it, then
     shut down: every queued client must get a reply — typed cancelled
     if it was still queued, OK if it slipped in first.  The assertion
     is liveness: all the joins below complete. *)
  let fleet =
    Thread.create
      (fun () -> ignore (Serve.Client.request ~socket_path "FLEET 6 wc"))
      ()
  in
  ignore (Unix.select [] [] [] 0.05);
  let replies = Array.make 3 None in
  let runs =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            replies.(i) <-
              Some
                (try
                   match Serve.Client.request ~socket_path "RUN wc" with
                   | Serve.Client.Ok_json _ -> "ok"
                   | Serve.Client.Err { cls; _ } -> cls
                 with Serve.Client.Unreachable _ -> "unreachable"))
          ())
  in
  ignore (Unix.select [] [] [] 0.05);
  (match Serve.Client.request ~socket_path "SHUTDOWN" with
  | Serve.Client.Ok_json _ -> ()
  | _ -> Alcotest.fail "SHUTDOWN failed");
  Array.iter Thread.join runs;
  Thread.join fleet;
  Thread.join server;
  Array.iteri
    (fun i r ->
      match r with
      | Some ("ok" | "cancelled" | "deadline") -> ()
      | Some other ->
        Alcotest.fail (Printf.sprintf "RUN %d got unexpected reply %s" i other)
      | None -> Alcotest.fail (Printf.sprintf "RUN %d never replied" i))
    replies;
  rm_rf dir

let () =
  Alcotest.run "serve"
    [ ( "pool",
        [ Alcotest.test_case "runs everything" `Quick test_pool_runs_everything;
          Alcotest.test_case "bounded queue sheds" `Quick
            test_pool_bounded_queue;
          Alcotest.test_case "shutdown cancels queued" `Quick
            test_pool_shutdown_cancels_queued ] );
      ( "obs",
        [ Alcotest.test_case "metrics domain-safe" `Quick
            test_metrics_domain_safe ] );
      ( "gate",
        [ Alcotest.test_case "coalesces" `Quick test_gate_coalesces;
          Alcotest.test_case "failure releases waiters" `Quick
            test_gate_failure_releases_waiters ] );
      ( "store",
        [ Alcotest.test_case "multi-domain hammer" `Slow test_store_hammer;
          Alcotest.test_case "budget eviction + pinning" `Quick
            test_budget_eviction_and_pinning;
          Alcotest.test_case "probe refreshes LRU" `Quick
            test_probe_refreshes_lru ] );
      ( "session",
        [ Alcotest.test_case "typed failures" `Slow test_session_typed_failures ] );
      ( "fleet",
        [ Alcotest.test_case "cold then warm" `Slow test_fleet_cold_then_warm;
          Alcotest.test_case "corrupt entry self-heals" `Slow
            test_fleet_corrupt_entry_self_heals ] );
      ( "chaos",
        [ Alcotest.test_case "invariants under cocktail" `Slow
            test_chaos_invariants;
          Alcotest.test_case "crash dump carries every counter" `Quick
            test_crash_dump_counters ] );
      ( "server",
        [ Alcotest.test_case "socket roundtrip" `Slow test_server_roundtrip;
          Alcotest.test_case "sheds and client retries" `Slow
            test_server_sheds_and_client_retries;
          Alcotest.test_case "shutdown wakes queued" `Slow
            test_server_shutdown_wakes_queued ] ) ]
