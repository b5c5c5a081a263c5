(* Fleet driver: N sessions through the domain pool against one shared
   cache, plus the aggregate numbers the serve economics are judged by
   — warm-hit rate, session-latency quantiles, and how much of a
   cold-cache translate storm the gate actually coalesced.

   Admission goes through the bounded pool the way a remote client's
   would: [try_submit], retrying a shed submission under jittered
   backoff, so a capped pool makes later sessions wait rather than
   overfilling its queue.  On an uncapped pool nothing sheds.

   Failures are typed (see {!Session.failure}) and the report carries a
   per-class breakdown: a chaos run that shows 40 deadline failures and
   0 crashes is a healthy system under an aggressive budget; the same
   totals with the classes swapped is a broken one. *)

type report = {
  sessions : int;
  ok : int;        (** sessions that ran and verified *)
  failures : int;
      (** [sessions - ok], a slot left without an outcome included *)
  mismatch_failures : int;   (** per-class breakdown of [failures] *)
  deadline_failures : int;
  cancelled_failures : int;
  crash_failures : int;
  wall_seconds : float;  (** whole-fleet wall clock *)
  p50_ms : float;  (** session-latency quantiles, nearest-rank *)
  p99_ms : float;
  counters : Vmm.Monitor.stats;
      (** the VMM counter table summed ({!Vmm.Monitor.add}) over the
          sessions that returned a result *)
  hit_rate : float;     (** hits / (hits + misses); 1.0 when no probes *)
  pages_translated : int;  (** fresh translation work across the fleet *)
  injected : int;          (** faults the sessions' injectors fired *)
  storage_injected : int;  (** disk faults their storage backends fired *)
  sheds : int;          (** submissions refused by the full queue *)
  retries : int;        (** re-submissions after a shed *)
  gate_wins : int;      (** unique translations granted by the gate *)
  gate_waits : int;     (** duplicate requests coalesced into waiting *)
  gate_failures : int;
  evictions : int;
  evicted_bytes : int;
  stuck_gates : int;
      (** in-flight gate keys once the pool drained: zero unless a
          session leaked one, or another request still runs on a
          shared pool *)
  leaked_pins : int;    (** pinned keys once the pool drained, likewise *)
}

let quantile_ms sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    1000. *. sorted.(max 0 (min (n - 1) rank))

(* generous but bounded: a shed submission retries under backoff until
   the queue drains *)
let admission =
  { Retry.attempts = 1000; base_s = 0.002; max_s = 0.05; multiplier = 2.0;
    jitter = 0.5 }

(** Run [sessions] guests over [pool], assigning workloads round-robin
    from [workloads].  Session ids start at [first_id] so successive
    fleets over one daemon stay distinguishable in labels and
    checkpoint paths.  Gate/eviction numbers are deltas over this fleet
    only, even when [shared] is reused across fleets.

    [stack] passes through to every session, which seeds its own
    injector and storage backend from its id ({!Session.run}).
    [deadline_ms] is each session's budget from its admission to the
    pool.  A session the pool sheds at shutdown, or whose admission
    gives up, surfaces as a [Cancelled] outcome, not a silently
    dropped slot. *)
let run ?stack ?deadline_ms ?(first_id = 0) ~pool ~shared ~sessions workloads =
  if sessions <= 0 then invalid_arg "Fleet.run: sessions must be positive";
  if workloads = [] then invalid_arg "Fleet.run: no workloads";
  let wl = Array.of_list workloads in
  let out : Session.outcome option array = Array.make sessions None in
  let sheds = ref 0 and retries = ref 0 in
  let before = Shared.stats shared in
  let t0 = Monotonic_clock.now () in
  for i = 0 to sessions - 1 do
    let id = first_id + i and workload = wl.(i mod Array.length wl) in
    let cancel () =
      out.(i) <- Some (Session.cancelled ~id ~workload "pool shut down")
    in
    match
      Retry.run ~policy:admission ~seed:id (fun ~attempt ->
          if attempt > 0 then incr retries;
          let deadline_at = Option.map Session.deadline_in deadline_ms in
          let job () =
            out.(i) <-
              Some (Session.run ?stack ?deadline_at ~shared ~id workload)
          in
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
  let wall_seconds =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
  in
  let after = Shared.stats shared in
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
  let ok = List.length (List.filter Session.ok outcomes) in
  let counters = Vmm.Monitor.fresh_stats () in
  let pages_translated = ref 0 in
  List.iter
    (fun (o : Session.outcome) ->
      match o.result with
      | Ok r ->
        Vmm.Monitor.add ~into:counters r.stats;
        pages_translated := !pages_translated + r.pages_translated
      | Error _ -> ())
    outcomes;
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  let hits = counters.tcache_hits and misses = counters.tcache_misses in
  let lat =
    List.map (fun (o : Session.outcome) -> o.seconds) outcomes
    |> Array.of_list
  in
  Array.sort compare lat;
  let report =
    { sessions; ok; failures = sessions - ok;
      mismatch_failures = by_class "mismatch";
      deadline_failures = by_class "deadline";
      cancelled_failures = by_class "cancelled";
      crash_failures = by_class "crash";
      wall_seconds;
      p50_ms = quantile_ms lat 0.5; p99_ms = quantile_ms lat 0.99;
      counters;
      hit_rate =
        (if hits + misses = 0 then 1.0
         else float_of_int hits /. float_of_int (hits + misses));
      pages_translated = !pages_translated;
      injected = sum (fun (o : Session.outcome) -> o.injected);
      storage_injected = sum (fun (o : Session.outcome) -> o.storage_injected);
      sheds = !sheds; retries = !retries;
      gate_wins = after.gate_wins - before.gate_wins;
      gate_waits = after.gate_waits - before.gate_waits;
      gate_failures = after.gate_failures - before.gate_failures;
      evictions = after.evictions - before.evictions;
      evicted_bytes = after.evicted_bytes - before.evicted_bytes;
      stuck_gates = after.inflight_keys; leaked_pins = after.pinned_keys }
  in
  (report, outcomes)

(** The report as one flat JSON object: the fleet's own figures, then
    every counter-table row under its name. *)
let report_json r =
  let open Obs.Json in
  Obj
    ([ ("sessions", Int r.sessions); ("ok", Int r.ok);
       ("failures", Int r.failures);
       ("mismatch_failures", Int r.mismatch_failures);
       ("deadline_failures", Int r.deadline_failures);
       ("cancelled_failures", Int r.cancelled_failures);
       ("crash_failures", Int r.crash_failures);
       ("wall_seconds", Float r.wall_seconds);
       ("p50_ms", Float r.p50_ms); ("p99_ms", Float r.p99_ms);
       ("hit_rate", Float r.hit_rate);
       ("pages_translated", Int r.pages_translated);
       ("injected", Int r.injected);
       ("storage_injected", Int r.storage_injected);
       ("sheds", Int r.sheds); ("retries", Int r.retries);
       ("gate_wins", Int r.gate_wins); ("gate_waits", Int r.gate_waits);
       ("gate_failures", Int r.gate_failures);
       ("evictions", Int r.evictions);
       ("evicted_bytes", Int r.evicted_bytes);
       ("stuck_gates", Int r.stuck_gates);
       ("leaked_pins", Int r.leaked_pins) ]
    @ Obs.Flight.counter_fields r.counters)
