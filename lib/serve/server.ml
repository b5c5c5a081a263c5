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
                                  sessions, shed/failure counters, the
                                  VMM counters summed over sessions
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
  stack : Guard.Stack.t;
      (** what every session runs under; injector and storage seeds
          derive from the session id, so a run replays *)
  (* vitals: atomics, and the counter totals under their own lock *)
  sheds : int Atomic.t;            (* requests refused with `busy` *)
  completed : int Atomic.t;        (* sessions that ran to an outcome *)
  f_mismatch : int Atomic.t;
  f_deadline : int Atomic.t;
  f_cancelled : int Atomic.t;
  f_crash : int Atomic.t;
  storage_injected : int Atomic.t; (* disk faults session backends fired *)
  avg_ms : float Atomic.t;         (* EWMA session latency, for hints *)
  totals : Vmm.Monitor.stats;
      (* the counter table summed over sessions that returned a result,
         under [totals_lock] *)
  totals_lock : Mutex.t;
}

let ok_json j = "OK " ^ Obs.Json.to_string j

let err cls detail =
  Printf.sprintf "ERR %s %s" cls (Session.sanitize detail)

(* Every finished session flows through here, RUN and FLEET alike, so
   HEALTH sees one consistent set of vitals. *)
let note_outcome t (o : Session.outcome) =
  Atomic.incr t.completed;
  ignore (Atomic.fetch_and_add t.storage_injected o.storage_injected);
  (match o.result with
  | Ok r ->
    Mutex.protect t.totals_lock (fun () ->
        Vmm.Monitor.add ~into:t.totals r.stats)
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

let stats_json t =
  let dir = Shared.dir t.shared in
  let entries = List.length (Fsio.files_with_suffix dir ".dtc") in
  Obs.Json.Obj
    [ ("coordinator", Shared.stats_json t.shared);
      ("cache_dir", Obs.Json.Str dir);
      ("cache_entries", Obs.Json.Int entries);
      ("cache_bytes", Obs.Json.Int (Tcache.Store.dir_bytes dir));
      ("cache_quarantined",
       Obs.Json.Int (List.length (Fsio.files_with_suffix dir ".dtc.bad")));
      ("sessions_started", Obs.Json.Int (Atomic.get t.next_id));
      ("pool_domains", Obs.Json.Int (Pool.size t.pool)) ]

let health_json t =
  let cap = Pool.queue_cap t.pool in
  Obs.Json.Obj
    ([ ("queue_depth", Obs.Json.Int (Pool.depth t.pool));
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
       ("storage_injected", Obs.Json.Int (Atomic.get t.storage_injected));
       ("avg_session_ms", Obs.Json.Float (Atomic.get t.avg_ms)) ]
    @ Mutex.protect t.totals_lock (fun () ->
          Obs.Flight.counter_fields t.totals))

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
  let deadline_at = Option.map Session.deadline_in deadline_ms in
  let job () =
    (* the id is allocated by the job, not the request, so shed
       requests never burn ids and sessions_started counts real runs *)
    let id = Atomic.fetch_and_add t.next_id 1 in
    let o =
      Session.run ~stack:t.stack ?deadline_at ~shared:t.shared ~id workload
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
  (* shed the whole request while the backlog is at capacity; once
     admitted, the fleet keeps to the cap session by session, waiting
     under backoff while the queue is full *)
  let depth = Pool.depth t.pool in
  if depth >= Pool.queue_cap t.pool then begin
    Atomic.incr t.sheds;
    err "busy" (string_of_int (retry_after_ms t ~depth))
  end
  else begin
    let first_id = Atomic.fetch_and_add t.next_id sessions in
    match
      Fleet.run ~stack:t.stack ?deadline_ms ~first_id ~pool:t.pool
        ~shared:t.shared ~sessions workloads
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
    [queue_cap] bounds the pool backlog (load shedding past it).
    Every session runs under [stack] ({!Session.run}): the chaos flags
    put a fault injector and a lying disk in it, and HEALTH then
    reports how many disk faults fired and how many cache ops degraded
    to memory. *)
let serve ?(stack = Guard.Stack.default) ?budget ?(domains = 4) ?queue_cap
    ~socket_path ~dir () =
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
      stop = Atomic.make false; stack;
      sheds = Atomic.make 0; completed = Atomic.make 0;
      f_mismatch = Atomic.make 0; f_deadline = Atomic.make 0;
      f_cancelled = Atomic.make 0; f_crash = Atomic.make 0;
      storage_injected = Atomic.make 0; avg_ms = Atomic.make 0.;
      totals = Vmm.Monitor.fresh_stats (); totals_lock = Mutex.create () }
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
