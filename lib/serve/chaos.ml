(* The chaos harness: a whole serving fleet under the PR-3 fault
   cocktail, with the failure model's promises checked at the end.

   Each session gets its own seeded {!Fault.Inject} instance (seed
   derived from the run seed and the session id, so any individual
   session replays exactly), attached through the session-instrument
   hook alongside the normal gate/pin wiring.  Admission goes through
   the bounded pool exactly the way a remote client's would — via
   [try_submit], retrying shed submissions under the shared
   jittered-backoff policy — so the load-shedding path is exercised by
   construction, not just when the host happens to be slow.

   What the report asserts (and the acceptance gate checks):
   - no session outcome is missing: every admitted session ends in a
     typed outcome, even under shutdown;
   - [stuck_gates] and [leaked_pins] are the coordinator's in-flight
     and pin tables after quiesce — both must be zero, or a failing
     session leaked shared state;
   - injected faults are absorbed by the ladder ([crash_failures] and
     [mismatch_failures] stay zero under the cocktail, which contains
     no silent corruption) while [self_heals] counts poisoned cache
     entries that were quarantined and retranslated rather than
     surfaced to a client.

   This module lives in serve, not fault, because the dependency
   arrow must point serve -> fault: guard already depends on fault,
   and serve on guard. *)

type config = {
  seed : int;
  sessions : int;
  domains : int;
  queue_cap : int;       (** pool backlog bound; small = lots of shedding *)
  workloads : string list;
  deadline_ms : int option;  (** per-session budget, from admission *)
  inject : Fault.Inject.config;  (** rates; per-session seeds derive from [seed] *)
  budget : int option;   (** shared-cache byte budget *)
  tier2 : Obs.Tier.config option;
      (** attach tier-2 promotion inside every session, so injected
          faults also land while regions are live *)
  storage : Fsio.fault_config option;
      (** when set, every session's translation cache runs on a seeded
          fault backend (per-session seeds derive from [seed], like the
          injectors) — ENOSPC, EIO, short writes, torn renames *)
}

let default =
  { seed = 7; sessions = 32; domains = 4; queue_cap = 8;
    workloads = [ "wc"; "cmp" ]; deadline_ms = None;
    inject = Fault.Inject.cocktail; budget = None; tier2 = None;
    storage = None }

type report = {
  sessions : int;
  ok : int;
  mismatch_failures : int;
  deadline_failures : int;
  cancelled_failures : int;
  crash_failures : int;
  p50_ms : float;
  p99_ms : float;
  wall_seconds : float;
  injected : int;        (** faults that actually fired, all classes *)
  storage_injected : int;  (** storage faults the fault backend fired *)
  tcache_degraded : int;   (** cache ops absorbed by the memory overlay *)
  storage_faults : int;    (** faults that reached the degraded verdict *)
  self_heals : int;      (** corrupt cache entries quarantined *)
  ladder_strikes : int;  (** page quarantines (degradation ladder) *)
  sheds : int;           (** submissions refused by the full queue *)
  retries : int;         (** re-submissions after a shed *)
  stuck_gates : int;     (** in-flight gate keys after quiesce; must be 0 *)
  leaked_pins : int;     (** pinned keys after quiesce; must be 0 *)
}

(** Run the fleet in-process against cache directory [dir].  Uses its
    own pool and coordinator (sized from [cfg]); returns once every
    session has an outcome and the pool is quiesced. *)
let run ?params ?checkpoint_root ~dir (cfg : config) =
  if cfg.sessions <= 0 then invalid_arg "Chaos.run: sessions must be positive";
  if cfg.workloads = [] then invalid_arg "Chaos.run: no workloads";
  let pool = Pool.create ~queue_cap:cfg.queue_cap ~domains:cfg.domains () in
  let shared = Shared.create ?budget:cfg.budget ~dir () in
  let wl = Array.of_list cfg.workloads in
  let out : Session.outcome option array = Array.make cfg.sessions None in
  let injectors =
    Array.init cfg.sessions (fun id ->
        Fault.Inject.create
          { cfg.inject with seed = cfg.seed + (id * 0x9E3779B9) })
  in
  (* per-session seeded storage backends, same derivation as the fault
     injectors so any one session's disk-fault stream replays exactly *)
  let storage =
    Option.map
      (fun (fc : Fsio.fault_config) ->
        Array.init cfg.sessions (fun id ->
            Fsio.faulty { fc with seed = cfg.seed + (id * 0x9E3779B9) }))
      cfg.storage
  in
  let session_io id =
    Option.map (fun arr -> fst arr.(id)) storage
  in
  let sheds = ref 0 and retries = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* generous but bounded: a shed submission retries under backoff
     until the queue drains; the daemon equivalent is the client's
     --retries loop *)
  let policy =
    { Retry.attempts = 1000; base_s = 0.002; max_s = 0.05; multiplier = 2.0;
      jitter = 0.5 }
  in
  for i = 0 to cfg.sessions - 1 do
    let workload = wl.(i mod Array.length wl) in
    let job () =
      let deadline_at =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          cfg.deadline_ms
      in
      out.(i) <-
        Some
          (Session.run ?params ?checkpoint_root ?deadline_at
             ~instrument:(Fault.Inject.attach injectors.(i))
             ?tier2:cfg.tier2
             ?tcache_io:(session_io i)
             ~ignore_mem:
               (* delivered interrupts are counted by the mini OS at a
                  known word the reference interpreter never sees *)
               (if cfg.inject.interrupt_rate > 0. then
                  [ Workloads.Wl.interrupt_count_addr ]
                else [])
             ~shared ~id:i workload)
    in
    let cancel () =
      out.(i) <-
        Some (Session.cancelled ~id:i ~workload "pool shut down")
    in
    match
      Retry.run ~policy ~seed:(cfg.seed + i) (fun ~attempt ->
          if attempt > 0 then incr retries;
          match Pool.try_submit ~cancel pool job with
          | `Accepted -> `Ok ()
          | `Closed -> `Fail ()
          | `Busy _ ->
            incr sheds;
            `Retry ((), None))
    with
    | Ok () -> ()
    | Error _ -> cancel ()
  done;
  Pool.drain pool;
  Pool.shutdown pool;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let coord = Shared.stats shared in
  let outcomes =
    Array.to_list out
    |> List.filter_map Fun.id
    |> List.sort (fun (a : Session.outcome) b -> compare a.id b.id)
  in
  let by_class cls =
    List.length
      (List.filter
         (fun (o : Session.outcome) ->
           match o.result with
           | Error f -> Session.failure_class f = cls
           | Ok _ -> false)
         outcomes)
  in
  let stat f =
    List.fold_left
      (fun n (o : Session.outcome) ->
        match o.result with Ok r -> n + f r | Error _ -> n)
      0 outcomes
  in
  let lat =
    List.map (fun (o : Session.outcome) -> o.seconds) outcomes
    |> Array.of_list
  in
  Array.sort compare lat;
  ( { sessions = cfg.sessions;
    ok = List.length (List.filter Session.ok outcomes);
    mismatch_failures = by_class "mismatch";
    deadline_failures = by_class "deadline";
    cancelled_failures =
      by_class "cancelled" + (cfg.sessions - List.length outcomes);
    crash_failures = by_class "crash";
    p50_ms = Fleet.quantile_ms lat 0.5;
    p99_ms = Fleet.quantile_ms lat 0.99;
    wall_seconds;
    injected =
      Array.fold_left (fun n inj -> n + Fault.Inject.total inj) 0 injectors;
    storage_injected =
      (match storage with
      | None -> 0
      | Some arr ->
        Array.fold_left (fun n (_, inj) -> n + Fsio.faults_fired inj) 0 arr);
    tcache_degraded = stat (fun r -> r.stats.tcache_degraded);
    storage_faults = stat (fun r -> r.stats.storage_faults);
    self_heals = stat (fun r -> r.stats.tcache_quarantined);
    ladder_strikes = stat (fun r -> r.stats.quarantines);
      sheds = !sheds;
      retries = !retries;
      stuck_gates = coord.inflight_keys;
      leaked_pins = coord.pinned_keys },
    outcomes )

(** The chaos run's contract: every session accounted for with a typed
    outcome, no shared state left behind, no fault surfaced as a crash
    or mismatch.  Deadline/cancelled failures are legitimate (they are
    the failure model working); [`Violations] lists what broke. *)
let verdict r =
  let v = ref [] in
  let check cond msg = if not cond then v := msg :: !v in
  check
    (r.ok + r.mismatch_failures + r.deadline_failures + r.cancelled_failures
     + r.crash_failures
    = r.sessions)
    "sessions unaccounted for";
  check (r.stuck_gates = 0) "gate keys left in flight";
  check (r.leaked_pins = 0) "pins leaked";
  check (r.crash_failures = 0) "untyped/crash failures";
  check (r.mismatch_failures = 0) "verification mismatches";
  match !v with [] -> `Clean | v -> `Violations (List.rev v)

let report_json r =
  let open Obs.Json in
  Obj
    [ ("sessions", Int r.sessions); ("ok", Int r.ok);
      ("mismatch_failures", Int r.mismatch_failures);
      ("deadline_failures", Int r.deadline_failures);
      ("cancelled_failures", Int r.cancelled_failures);
      ("crash_failures", Int r.crash_failures);
      ("p50_ms", Float r.p50_ms); ("p99_ms", Float r.p99_ms);
      ("wall_seconds", Float r.wall_seconds);
      ("injected", Int r.injected);
      ("storage_injected", Int r.storage_injected);
      ("tcache_degraded", Int r.tcache_degraded);
      ("storage_faults", Int r.storage_faults);
      ("self_heals", Int r.self_heals);
      ("ladder_strikes", Int r.ladder_strikes);
      ("sheds", Int r.sheds); ("retries", Int r.retries);
      ("stuck_gates", Int r.stuck_gates);
      ("leaked_pins", Int r.leaked_pins) ]
