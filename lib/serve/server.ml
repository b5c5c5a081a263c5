(* The `daisy serve` daemon: a Unix-domain-socket front door over a
   domain pool and one shared cache coordinator.

   Protocol: one request per line, one reply per line — `OK <json>` or
   `ERR <class> <detail>` — so a shell can drive it with printf | nc
   and the client stays trivial.

     PING                         liveness check
     RUN <workload> [deadline_ms] one session; replies with its summary
     FLEET <n> <workload..> [deadline_ms]
                                  n sessions round-robin over the
                                  workloads; replies with the aggregate
                                  fleet report
     STATS                        coordinator + cache-directory numbers
     HEALTH                       daemon vitals: queue depth, in-flight
                                  sessions, shed/failure counters
     SHUTDOWN                     drain and stop the daemon

   Error classes are part of the protocol, not prose: `proto` (bad
   request), `busy <retry_after_ms>` (load shed — the detail is the
   client's backoff hint), `deadline`, `mismatch`, `crash`,
   `cancelled`, `internal`.  A client branches on the class; the detail
   is for humans.

   Threading: the accept loop owns the listener; each connection gets a
   systhread (connections spend their life blocked on session results,
   so cheap threads fit); all guest execution goes through the bounded
   domain [Pool].  The pool IS the admission control: its queue cap
   bounds the backlog, and past it RUN sheds with `busy` rather than
   letting queue latency grow without limit.

   Supervision: sessions are crash-only ({!Session.run} is total and
   tears its shared-state footprint down on every path), so the daemon
   never needs to distinguish a clean session from a crashed one — it
   maps the typed failure to a reply line and moves on.  The one
   cross-cutting liveness rule lives here: every connection thread
   blocked on a pool slot is woken at shutdown through the job's cancel
   callback, so SHUTDOWN can never strand a client mid-request. *)

type t = {
  socket_path : string;
  listener : Unix.file_descr;
  pool : Pool.t;
  shared : Shared.t;
  next_id : int Atomic.t;
  stop : bool Atomic.t;
  params : Translator.Params.t;
  checkpoint_root : string option;
  session_instrument : (id:int -> Vmm.Monitor.t -> unit) option;
      (** extra per-session hook — fault injection, extra observers *)
  tier2 : Obs.Tier.config option;
      (** attach the tier-2 promotion driver to every session *)
  ignore_mem : int list;
      (** verifier word addresses expected to diverge (chaos mode) *)
  storage : Fsio.fault_config option;
      (** when set, every session's cache runs on a seeded fault
          backend; seeds derive from the session id so a run replays *)
  storage_injectors : Fsio.injector list ref;  (* guarded by [storage_lock] *)
  storage_lock : Mutex.t;
  (* vitals, all atomics so HEALTH needs no lock *)
  sheds : int Atomic.t;            (* requests refused with `busy` *)
  completed : int Atomic.t;        (* sessions that ran to an outcome *)
  f_mismatch : int Atomic.t;
  f_deadline : int Atomic.t;
  f_cancelled : int Atomic.t;
  f_crash : int Atomic.t;
  ladder_strikes : int Atomic.t;   (* page quarantines across sessions *)
  self_heals : int Atomic.t;       (* corrupt cache entries quarantined *)
  tcache_degraded : int Atomic.t;  (* cache ops parked in memory overlays *)
  storage_faults : int Atomic.t;   (* checkpoint/store disk-fault strikes *)
  avg_ms : float Atomic.t;         (* EWMA session latency, for hints *)
}

let ok_json j = "OK " ^ Obs.Json.to_string j

let err cls detail =
  Printf.sprintf "ERR %s %s" cls (Session.sanitize detail)

(* Every finished session flows through here, RUN and FLEET alike, so
   HEALTH sees one consistent set of vitals. *)
let note_outcome t (o : Session.outcome) =
  Atomic.incr t.completed;
  (match o.result with
  | Ok r ->
    ignore (Atomic.fetch_and_add t.ladder_strikes r.stats.quarantines);
    ignore (Atomic.fetch_and_add t.self_heals r.stats.tcache_quarantined);
    ignore (Atomic.fetch_and_add t.tcache_degraded r.stats.tcache_degraded);
    ignore (Atomic.fetch_and_add t.storage_faults r.stats.storage_faults)
  | Error (Session.Mismatch _) -> Atomic.incr t.f_mismatch
  | Error (Session.Deadline _) -> Atomic.incr t.f_deadline
  | Error (Session.Cancelled _) -> Atomic.incr t.f_cancelled
  | Error (Session.Crash _) -> Atomic.incr t.f_crash);
  (* racy read-modify-write is fine: this feeds a backoff *hint* *)
  let ms = o.seconds *. 1000. in
  let old = Atomic.get t.avg_ms in
  Atomic.set t.avg_ms (if old = 0. then ms else (0.8 *. old) +. (0.2 *. ms))

(* How long a shed client should wait before retrying: roughly the
   time for its place in line to clear, from the observed session
   latency.  A hint, never a promise. *)
let retry_after_ms t ~depth =
  let avg = Atomic.get t.avg_ms in
  let est =
    avg *. float_of_int (depth + 1) /. float_of_int (Pool.size t.pool)
  in
  max 25 (int_of_float est)

let split_words s =
  String.split_on_char ' ' (String.trim s)
  |> List.filter (fun w -> w <> "")

(* `RUN wc 5000` / `FLEET 8 wc cmp 5000`: a trailing integer token is a
   per-session deadline in ms (workload names are never integers). *)
let split_deadline words =
  match List.rev words with
  | last :: (_ :: _ as rev_rest) -> (
    match int_of_string_opt last with
    | Some ms -> (List.rev rev_rest, Some ms)
    | None -> (words, None))
  | _ -> (words, None)

let deadline_at = function
  | None -> None
  | Some ms -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.))

(* A fresh seeded storage backend for session [id]; the injector is
   kept so HEALTH can report how many disk faults actually fired. *)
let fresh_session_io t ~id =
  Option.map
    (fun (fc : Fsio.fault_config) ->
      let io, inj = Fsio.faulty { fc with seed = fc.seed + (id * 0x9E3779B9) } in
      Mutex.lock t.storage_lock;
      t.storage_injectors := inj :: !(t.storage_injectors);
      Mutex.unlock t.storage_lock;
      io)
    t.storage

let storage_injected t =
  Mutex.lock t.storage_lock;
  let n =
    List.fold_left (fun n inj -> n + Fsio.faults_fired inj) 0
      !(t.storage_injectors)
  in
  Mutex.unlock t.storage_lock;
  n

let stats_json t =
  let dir = Shared.dir t.shared in
  let entries = List.length (Tcache.Store.entry_files dir) in
  Obs.Json.Obj
    [ ("coordinator", Shared.stats_json t.shared);
      ("cache_dir", Obs.Json.Str dir);
      ("cache_entries", Obs.Json.Int entries);
      ("cache_bytes", Obs.Json.Int (Tcache.Store.dir_bytes dir));
      ("cache_quarantined",
       Obs.Json.Int (List.length (Tcache.Store.quarantined_files dir)));
      ("sessions_started", Obs.Json.Int (Atomic.get t.next_id));
      ("pool_domains", Obs.Json.Int (Pool.size t.pool)) ]

let health_json t =
  let cap = Pool.queue_cap t.pool in
  Obs.Json.Obj
    [ ("queue_depth", Obs.Json.Int (Pool.depth t.pool));
      ("inflight_sessions", Obs.Json.Int (Pool.active t.pool));
      ("pool_domains", Obs.Json.Int (Pool.size t.pool));
      ("queue_cap",
       if cap = max_int then Obs.Json.Null else Obs.Json.Int cap);
      ("sessions_started", Obs.Json.Int (Atomic.get t.next_id));
      ("sessions_completed", Obs.Json.Int (Atomic.get t.completed));
      ("sheds", Obs.Json.Int (Atomic.get t.sheds));
      ("mismatch_failures", Obs.Json.Int (Atomic.get t.f_mismatch));
      ("deadline_failures", Obs.Json.Int (Atomic.get t.f_deadline));
      ("cancelled_failures", Obs.Json.Int (Atomic.get t.f_cancelled));
      ("crash_failures", Obs.Json.Int (Atomic.get t.f_crash));
      ("ladder_strikes", Obs.Json.Int (Atomic.get t.ladder_strikes));
      ("self_heals", Obs.Json.Int (Atomic.get t.self_heals));
      ("storage_injected", Obs.Json.Int (storage_injected t));
      ("tcache_degraded", Obs.Json.Int (Atomic.get t.tcache_degraded));
      ("storage_faults", Obs.Json.Int (Atomic.get t.storage_faults));
      ("avg_session_ms", Obs.Json.Float (Atomic.get t.avg_ms)) ]

(* One RUN request: admit through the bounded queue, block this
   connection thread on a slot the job (or its shutdown cancel) fills.
   The fill is idempotent so a cancel racing a completed job is
   harmless. *)
let run_one t ~workload ~deadline_ms =
  let lock = Mutex.create () in
  let ready = Condition.create () in
  let slot = ref None in
  let fill r =
    Mutex.lock lock;
    if !slot = None then begin
      slot := Some r;
      Condition.signal ready
    end;
    Mutex.unlock lock
  in
  let deadline_at = deadline_at deadline_ms in
  let job () =
    (* the id is allocated by the job, not the request, so shed
       requests never burn ids and sessions_started counts real runs *)
    let id = Atomic.fetch_and_add t.next_id 1 in
    let o =
      Session.run ~params:t.params ?checkpoint_root:t.checkpoint_root
        ?deadline_at
        ?instrument:
          (Option.map (fun f -> f ~id) t.session_instrument)
        ?tier2:t.tier2 ?tcache_io:(fresh_session_io t ~id)
        ~ignore_mem:t.ignore_mem ~shared:t.shared ~id workload
    in
    note_outcome t o;
    fill (`Outcome o)
  in
  match Pool.try_submit ~cancel:(fun () -> fill `Shutdown) t.pool job with
  | `Busy depth ->
    Atomic.incr t.sheds;
    err "busy" (string_of_int (retry_after_ms t ~depth))
  | `Closed -> err "cancelled" "daemon is shutting down"
  | `Accepted -> (
    Mutex.lock lock;
    while !slot = None do
      Condition.wait ready lock
    done;
    let r = Option.get !slot in
    Mutex.unlock lock;
    match r with
    | `Shutdown -> err "cancelled" "daemon shut down before the session ran"
    | `Outcome (o : Session.outcome) -> (
      match o.result with
      | Ok _ -> ok_json (Session.outcome_json o)
      | Error f -> err (Session.failure_class f) (Session.failure_detail f)))

let run_fleet t ~sessions ~workloads ~deadline_ms =
  (* shed the whole request while the backlog is at capacity — a fleet
     admitted into a full queue would just convert the cap into a lie *)
  let depth = Pool.depth t.pool in
  if depth >= Pool.queue_cap t.pool then begin
    Atomic.incr t.sheds;
    err "busy" (string_of_int (retry_after_ms t ~depth))
  end
  else begin
    let first_id = Atomic.fetch_and_add t.next_id sessions in
    match
      Fleet.run ~params:t.params ?checkpoint_root:t.checkpoint_root
        ?deadline_at:(deadline_at deadline_ms)
        ?instrument:t.session_instrument ?tier2:t.tier2
        ?session_io:
          (Option.map
             (fun _ ~id -> Option.get (fresh_session_io t ~id))
             t.storage)
        ~ignore_mem:t.ignore_mem ~first_id
        ~pool:t.pool ~shared:t.shared ~sessions workloads
    with
    | report, outcomes ->
      List.iter (note_outcome t) outcomes;
      ok_json (Fleet.report_json report)
    | exception Invalid_argument msg -> err "cancelled" msg
    | exception e -> err "internal" (Printexc.to_string e)
  end

let respond t line =
  match split_words line with
  | [ "PING" ] -> ok_json (Obs.Json.Str "pong")
  | "RUN" :: rest -> (
    match split_deadline rest with
    | [ w ], deadline_ms -> run_one t ~workload:w ~deadline_ms
    | _ -> err "proto" "usage: RUN <workload> [deadline_ms]")
  | "FLEET" :: n :: (_ :: _ as rest) -> (
    let workloads, deadline_ms = split_deadline rest in
    match int_of_string_opt n with
    | None -> err "proto" (Printf.sprintf "bad session count %S" n)
    | Some n when n <= 0 ->
      err "proto" (Printf.sprintf "bad session count %d" n)
    | Some _ when workloads = [] ->
      err "proto" "usage: FLEET <n> <workload..> [deadline_ms]"
    | Some sessions -> run_fleet t ~sessions ~workloads ~deadline_ms)
  | [ "STATS" ] -> ok_json (stats_json t)
  | [ "HEALTH" ] -> ok_json (health_json t)
  | [ "SHUTDOWN" ] ->
    Atomic.set t.stop true;
    ok_json (Obs.Json.Str "bye")
  | [] -> err "proto" "empty request"
  | cmd :: _ -> err "proto" (Printf.sprintf "unknown command %S" cmd)

(* Wake the accept loop after SHUTDOWN: connect once to our own socket
   and drop the connection.  Blunt, but portable — closing a listener
   out from under a blocked accept is not. *)
let poke t =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Per-connection supervision: [respond] already maps session failures
   to typed replies, so the only exceptions left here are I/O on a
   dead peer — logged to /dev/null by design (the peer is gone) — and
   anything truly unexpected, which becomes `ERR internal` rather than
   a dead connection thread. *)
let handle t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
         let reply =
           try respond t line
           with e -> err "internal" (Printexc.to_string e)
         in
         output_string oc reply;
         output_char oc '\n';
         flush oc;
         if not (Atomic.get t.stop) then loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  if Atomic.get t.stop then poke t;
  try Unix.close fd with Unix.Unix_error _ -> ()

(** Bind, listen and serve until a SHUTDOWN request.  Blocks the
    calling thread; returns the number of sessions started.
    [queue_cap] bounds the pool backlog (load shedding past it);
    [session_instrument] is an extra per-session VMM hook, keyed by
    session id — the chaos flags use it to attach fault injectors.
    [tier2] turns on tier-2 region promotion inside every session.
    [storage] puts every session's translation cache on a seeded
    disk-fault backend (`--chaos-storage`); HEALTH then reports how
    many faults fired and how many cache ops degraded to memory. *)
let serve ?(params = Translator.Params.default) ?budget
    ?checkpoint_root ?(domains = 4) ?queue_cap ?session_instrument ?tier2
    ?storage ?(ignore_mem = []) ~socket_path ~dir () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stale socket file from a dead daemon blocks bind; take the name *)
  (match Unix.lstat socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket_path
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 64;
  let t =
    { socket_path; listener; pool = Pool.create ?queue_cap ~domains ();
      shared = Shared.create ?budget ~dir (); next_id = Atomic.make 0;
      stop = Atomic.make false; params; checkpoint_root;
      session_instrument; tier2; ignore_mem; storage;
      storage_injectors = ref []; storage_lock = Mutex.create ();
      sheds = Atomic.make 0; completed = Atomic.make 0;
      f_mismatch = Atomic.make 0; f_deadline = Atomic.make 0;
      f_cancelled = Atomic.make 0; f_crash = Atomic.make 0;
      ladder_strikes = Atomic.make 0; self_heals = Atomic.make 0;
      tcache_degraded = Atomic.make 0; storage_faults = Atomic.make 0;
      avg_ms = Atomic.make 0. }
  in
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.accept t.listener with
      | fd, _ ->
        ignore (Thread.create (fun () -> handle t fd) ());
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  accept_loop ();
  (* cancels everything still queued — each cancel wakes its waiting
     connection thread with a typed `cancelled` reply *)
  Pool.shutdown t.pool;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Atomic.get t.next_id
