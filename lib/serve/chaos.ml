(* The chaos harness: a whole serving fleet under the fault cocktail,
   with the failure model's promises checked at the end.  A chaos run
   is a fleet run ({!Fleet.run}) plus a verdict.

   Every session runs the same {!Guard.Stack}: the injector cocktail,
   and optionally tier-2 and a lying disk.  Each session seeds its own
   injector and storage backend from the run seed and its id, so any
   individual session replays exactly.  The fleet admits sessions
   through the bounded pool the way a remote client's would, so a
   small [queue_cap] exercises the load-shedding path by construction,
   not just when the host happens to be slow.

   What the verdict asserts (and the acceptance gate checks):
   - no session outcome is missing: every admitted session ends in a
     typed outcome, even under shutdown;
   - [stuck_gates] and [leaked_pins] are the coordinator's in-flight
     and pin tables after quiesce — both must be zero, or a failing
     session leaked shared state;
   - injected faults are absorbed by the ladder ([crash_failures] and
     [mismatch_failures] stay zero under the cocktail, which contains
     no silent corruption) while [tcache_quarantined] counts poisoned
     cache entries that were quarantined and retranslated rather than
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

(** Run the fleet in-process against cache directory [dir], on its own
    pool and coordinator (sized from [cfg]), through {!Fleet.run}.
    Returns once every session has an outcome and the pool is shut
    down; the report's [stuck_gates] and [leaked_pins] are then this
    fleet's alone. *)
let run ~dir (cfg : config) =
  let pool = Pool.create ~queue_cap:cfg.queue_cap ~domains:cfg.domains () in
  let shared = Shared.create ?budget:cfg.budget ~dir () in
  let stack =
    { Guard.Stack.default with
      faults = Some { cfg.inject with seed = cfg.seed };
      storage =
        Option.map (fun (fc : Fsio.fault_config) -> { fc with seed = cfg.seed })
          cfg.storage;
      tier2 = cfg.tier2 }
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Fleet.run ~stack ?deadline_ms:cfg.deadline_ms ~pool ~shared
        ~sessions:cfg.sessions cfg.workloads)

(** The chaos run's contract: every session accounted for with a typed
    outcome, no shared state left behind, no fault surfaced as a crash
    or mismatch.  Deadline/cancelled failures are legitimate (they are
    the failure model working); [`Violations] lists what broke. *)
let verdict (r : Fleet.report) =
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
