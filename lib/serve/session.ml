(* One guest session: a full differentially-verified `Vmm.Run` with its
   own memory image, VMM, metrics registry and (optionally) checkpoint
   directory — sharing only the translation-cache directory, through
   the coordinator's gate/pin discipline.

   Isolation inventory: the workload is re-instantiated per session
   (fresh guest memory), `Run.run` creates a fresh Monitor + Machine +
   translator, the metrics registry is per-session and labeled with the
   session id, and the checkpoint dir (when given) is
   [<root>/session-<id>].  The ONLY shared mutable state is the cache
   directory, and every mutation of it goes through the store's
   directory lock; the only shared in-process state is the coordinator,
   behind its own mutex.

   Supervision contract: [run] is TOTAL.  Whatever a session does —
   unknown workload, translator crash, verification mismatch, deadline
   expiry, fault injection — the caller gets an [outcome] with a typed
   [failure], never an exception, and the session's footprint in shared
   state is gone: pins released (the refcounts other sessions' budget
   enforcement consults), checkpoint directory removed, byte budget
   re-applied.  That totality is what lets the daemon treat sessions as
   crash-only components. *)

type failure =
  | Mismatch of string   (** differential verification failed *)
  | Deadline of float    (** session budget expired after this many s *)
  | Cancelled of string  (** shed before running (shutdown, queue) *)
  | Crash of string      (** any other exception, message preserved *)

let failure_class = function
  | Mismatch _ -> "mismatch"
  | Deadline _ -> "deadline"
  | Cancelled _ -> "cancelled"
  | Crash _ -> "crash"

(* Error details travel on one protocol line; newlines would truncate
   the reply and desynchronize the stream. *)
let sanitize s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let failure_detail = function
  | Mismatch msg -> sanitize msg
  | Deadline s when s <= 0. -> "deadline expired before the session started"
  | Deadline s -> Printf.sprintf "session budget expired after %.3fs" s
  | Cancelled why -> sanitize why
  | Crash msg -> sanitize msg

type outcome = {
  id : int;
  workload : string;
  seconds : float;  (** wall-clock session latency *)
  result : (Vmm.Run.result, failure) Stdlib.result;
      (** the session never lets an exception escape to the pool *)
  metrics : Obs.Metrics.t;  (** labeled [session-<id>] *)
}

let ok o = Result.is_ok o.result

(** An outcome for a session that never ran — the pool shed it at
    shutdown, or its deadline passed while it sat in the queue. *)
let cancelled ~id ~workload why =
  { id; workload; seconds = 0.;
    result = Error (Cancelled why);
    metrics = Obs.Metrics.create ~label:(Printf.sprintf "session-%d" id) () }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(** Run workload [name] as session [id] against [shared]'s cache
    directory.  Translation work is gated through [shared] so a cold
    fleet translates each page once; every cache key the session
    touches is pinned for its lifetime, then unpinned and the byte
    budget enforced as it leaves — on every exit path.

    [deadline_at] is an absolute [Unix.gettimeofday] instant: already
    past, the session fails [Deadline] without running (it expired in
    the queue); otherwise the remaining time becomes a
    {!Guard.Watchdog} session budget checked at every commit boundary.
    [instrument] is an extra hook over the session's own (fault
    injectors, extra observers); it runs after the session wires its
    gate/pin hooks, so it may chain them.  [tier2] attaches the tier-2
    promotion driver ({!Obs.Tier}) — last, after [instrument], so no
    other attachment replaces the hooks it chains; promotion compiles
    run synchronously on the session's own pool domain (a session is
    already off the accept path, so there is no main loop to protect).
    [ignore_mem] passes through to {!Vmm.Run.run}'s verifier — word
    addresses whose divergence is expected (the interrupt count under
    injection, say). *)
let run ?params ?checkpoint_root ?deadline_at ?instrument ?tier2
    ?tcache_io ?(ignore_mem = []) ~shared ~id name =
  let metrics = Obs.Metrics.create ~label:(Printf.sprintf "session-%d" id) () in
  let touched : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let touched_lock = Mutex.create () in
  let store = ref None in
  let checkpoint_dir =
    Option.map
      (fun root -> Filename.concat root (Printf.sprintf "session-%d" id))
      checkpoint_root
  in
  let instrument_session (vmm : Vmm.Monitor.t) =
    store := vmm.tcache;
    vmm.translate_gate <- Some (Shared.gate shared);
    vmm.translate_release <- Some (Shared.release shared);
    vmm.tcache_touch <-
      Some
        (fun ~key ->
          (* first touch per key per session pins it; the session's own
             set keeps the refcount at one per live session *)
          Mutex.lock touched_lock;
          let fresh = not (Hashtbl.mem touched key) in
          if fresh then Hashtbl.add touched key ();
          Mutex.unlock touched_lock;
          if fresh then Shared.pin shared ~key);
    (match checkpoint_dir with
    | None -> ()
    | Some dir ->
      ignore (Guard.Supervise.attach ~checkpoint_dir:dir ~workload:name vmm));
    (match deadline_at with
    | None -> ()
    | Some d ->
      (* session budget = time left from queue admission to now; the
         watchdog chains the tick hook Supervise may have installed *)
      Guard.Watchdog.attach
        { Guard.Watchdog.none with
          session_s = Some (d -. Unix.gettimeofday ()) }
        vmm);
    (match instrument with Some f -> f vmm | None -> ());
    match tier2 with
    | None -> ()
    | Some cfg ->
      ignore (Obs.Tier.attach ~cfg:{ cfg with Obs.Tier.submit = None } vmm)
  in
  let t0 = Unix.gettimeofday () in
  let result =
    if
      match deadline_at with
      | Some d -> Unix.gettimeofday () > d
      | None -> false
    then
      (* it expired while queued: still a deadline to the client —
         [Cancelled] is reserved for shutdown/shedding *)
      Error (Deadline 0.)
    else
      match
        let w = Workloads.Registry.by_name name in
        Vmm.Run.run ?params ~instrument:instrument_session
          ~ignore_mem ~tcache_dir:(Shared.dir shared) ?tcache_io w
      with
      | r -> Ok r
      | exception Vmm.Run.Mismatch msg -> Error (Mismatch msg)
      | exception Guard.Watchdog.Expired s -> Error (Deadline s)
      | exception e -> Error (Crash (Printexc.to_string e))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (* leave: drop this session's pins, apply the capacity budget now
     that its hot set no longer needs protection, remove its
     checkpoints.  Best-effort each, and unconditional — a crashed or
     deadlined session must not leak pins into the shared table. *)
  Hashtbl.iter (fun key () -> Shared.unpin shared ~key) touched;
  (match !store with
  | Some s -> ( try Shared.enforce_budget shared s with _ -> ())
  | None -> ());
  Option.iter rm_rf checkpoint_dir;
  (match result with
  | Ok r -> Obs.Bridge.record_result metrics r
  | Error _ -> ());
  { id; workload = name; seconds; result; metrics }

let outcome_json o =
  let open Obs.Json in
  let base =
    [ ("id", Int o.id); ("workload", Str o.workload);
      ("seconds", Float o.seconds); ("ok", Bool (ok o)) ]
  in
  Obj
    (match o.result with
    | Error f ->
      base
      @ [ ("error_class", Str (failure_class f));
          ("error", Str (failure_detail f)) ]
    | Ok r ->
      base
      @ [ ("exit_code",
           match r.exit_code with Some c -> Int c | None -> Null);
          ("base_insns", Int r.base_insns);
          ("pages_translated", Int r.pages_translated);
          ("tcache_hits", Int r.stats.tcache_hits);
          ("tcache_misses", Int r.stats.tcache_misses);
          ("tcache_quarantined", Int r.stats.tcache_quarantined);
          ("tcache_degraded", Int r.stats.tcache_degraded);
          ("storage_faults", Int r.stats.storage_faults);
          ("tier2_promotions", Int r.stats.tier2_promotions);
          ("tier2_deopts", Int r.stats.tier2_deopts);
          ("degraded", Bool (Vmm.Run.degraded r.stats)) ])
