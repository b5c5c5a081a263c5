(* Fleet driver: N sessions through the domain pool against one shared
   cache, plus the aggregate numbers the serve economics are judged by
   — warm-hit rate, session-latency quantiles, and how much of a
   cold-cache translate storm the gate actually coalesced.

   Failures are typed (see {!Session.failure}) and the report carries a
   per-class breakdown: a chaos run that shows 40 deadline failures and
   0 crashes is a healthy system under an aggressive budget; the same
   totals with the classes swapped is a broken one. *)

type report = {
  sessions : int;
  failures : int;  (** sessions whose run raised or failed verification *)
  mismatch_failures : int;   (** per-class breakdown of [failures] *)
  deadline_failures : int;
  cancelled_failures : int;
  crash_failures : int;
  wall_seconds : float;  (** whole-fleet wall clock *)
  p50_ms : float;  (** session-latency quantiles, nearest-rank *)
  p99_ms : float;
  tcache_hits : int;    (** summed over sessions *)
  tcache_misses : int;
  hit_rate : float;     (** hits / (hits + misses); 1.0 when no probes *)
  pages_translated : int;  (** fresh translation work across the fleet *)
  tcache_quarantined : int;  (** corrupt entries self-healed, summed *)
  tcache_degraded : int;  (** cache ops parked in memory on storage faults *)
  storage_faults : int;   (** checkpoint/store writes that hit a disk fault *)
  gate_wins : int;      (** unique translations granted by the gate *)
  gate_waits : int;     (** duplicate requests coalesced into waiting *)
  gate_failures : int;
  evictions : int;
  evicted_bytes : int;
  tier2_promotions : int;  (** regions promoted to tier-2, summed *)
  tier2_deopts : int;      (** promotions rolled back, summed *)
}

let quantile_ms sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    1000. *. sorted.(max 0 (min (n - 1) rank))

(** Run [sessions] guests over [pool], assigning workloads round-robin
    from [workloads].  Session ids start at [first_id] so successive
    fleets over one daemon stay distinguishable in labels and
    checkpoint paths.  Gate/eviction numbers are deltas over this fleet
    only, even when [shared] is reused across fleets.

    [deadline_at] passes through to every session; [instrument] is
    keyed by session id so per-session attachments (fault injectors
    seeded per id, say) land on the right VMM.  [session_io], also
    keyed by id, gives each session its own storage backend — the
    storage-chaos harness hands out per-session seeded fault backends
    here.  A session the pool sheds at shutdown surfaces as a
    [Cancelled] outcome, not a silently dropped slot. *)
let run ?params ?checkpoint_root ?deadline_at ?instrument ?tier2
    ?session_io ?ignore_mem ?(first_id = 0) ~pool ~shared ~sessions workloads =
  if sessions <= 0 then invalid_arg "Fleet.run: sessions must be positive";
  if workloads = [] then invalid_arg "Fleet.run: no workloads";
  let wl = Array.of_list workloads in
  let out : Session.outcome option array = Array.make sessions None in
  let before = Shared.stats shared in
  let t0 = Unix.gettimeofday () in
  for i = 0 to sessions - 1 do
    let id = first_id + i and workload = wl.(i mod Array.length wl) in
    Pool.submit
      ~cancel:(fun () ->
        out.(i) <- Some (Session.cancelled ~id ~workload "pool shut down"))
      pool
      (fun () ->
        out.(i) <-
          Some
            (Session.run ?params ?checkpoint_root ?deadline_at
               ?instrument:(Option.map (fun f -> f ~id) instrument)
               ?tier2
               ?tcache_io:(Option.map (fun f -> f ~id) session_io)
               ?ignore_mem ~shared ~id workload))
  done;
  Pool.drain pool;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let after = Shared.stats shared in
  let outcomes =
    Array.to_list out
    |> List.filter_map Fun.id
    |> List.sort (fun (a : Session.outcome) b -> compare a.id b.id)
  in
  (* a dropped slot (job vanished without even a cancel) still counts
     as a failure alongside the typed ones *)
  let by_class cls =
    List.length
      (List.filter
         (fun (o : Session.outcome) ->
           match o.result with
           | Error f -> Session.failure_class f = cls
           | Ok _ -> false)
         outcomes)
  in
  let failures =
    sessions - List.length outcomes
    + List.length (List.filter (fun o -> not (Session.ok o)) outcomes)
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  let stat f =
    sum (fun (o : Session.outcome) ->
        match o.result with Ok r -> f r | Error _ -> 0)
  in
  let hits = stat (fun r -> r.stats.tcache_hits) in
  let misses = stat (fun r -> r.stats.tcache_misses) in
  let lat =
    List.map (fun (o : Session.outcome) -> o.seconds) outcomes
    |> Array.of_list
  in
  Array.sort compare lat;
  let report =
    { sessions; failures;
      mismatch_failures = by_class "mismatch";
      deadline_failures = by_class "deadline";
      cancelled_failures = by_class "cancelled";
      crash_failures = by_class "crash";
      wall_seconds;
      p50_ms = quantile_ms lat 0.5; p99_ms = quantile_ms lat 0.99;
      tcache_hits = hits; tcache_misses = misses;
      hit_rate =
        (if hits + misses = 0 then 1.0
         else float_of_int hits /. float_of_int (hits + misses));
      pages_translated = stat (fun r -> r.pages_translated);
      tcache_quarantined = stat (fun r -> r.stats.tcache_quarantined);
      tcache_degraded = stat (fun r -> r.stats.tcache_degraded);
      storage_faults = stat (fun r -> r.stats.storage_faults);
      gate_wins = after.gate_wins - before.gate_wins;
      gate_waits = after.gate_waits - before.gate_waits;
      gate_failures = after.gate_failures - before.gate_failures;
      evictions = after.evictions - before.evictions;
      evicted_bytes = after.evicted_bytes - before.evicted_bytes;
      tier2_promotions = stat (fun r -> r.stats.tier2_promotions);
      tier2_deopts = stat (fun r -> r.stats.tier2_deopts) }
  in
  (report, outcomes)

let report_json r =
  let open Obs.Json in
  Obj
    [ ("sessions", Int r.sessions); ("failures", Int r.failures);
      ("mismatch_failures", Int r.mismatch_failures);
      ("deadline_failures", Int r.deadline_failures);
      ("cancelled_failures", Int r.cancelled_failures);
      ("crash_failures", Int r.crash_failures);
      ("wall_seconds", Float r.wall_seconds);
      ("p50_ms", Float r.p50_ms); ("p99_ms", Float r.p99_ms);
      ("tcache_hits", Int r.tcache_hits);
      ("tcache_misses", Int r.tcache_misses);
      ("hit_rate", Float r.hit_rate);
      ("pages_translated", Int r.pages_translated);
      ("tcache_quarantined", Int r.tcache_quarantined);
      ("tcache_degraded", Int r.tcache_degraded);
      ("storage_faults", Int r.storage_faults);
      ("gate_wins", Int r.gate_wins); ("gate_waits", Int r.gate_waits);
      ("gate_failures", Int r.gate_failures);
      ("evictions", Int r.evictions);
      ("evicted_bytes", Int r.evicted_bytes);
      ("tier2_promotions", Int r.tier2_promotions);
      ("tier2_deopts", Int r.tier2_deopts) ]
