(* One guest session: a full differentially-verified `Vmm.Run` with its
   own memory image, VMM and (optionally) checkpoint directory —
   sharing only the translation-cache directory, through the
   coordinator's gate/pin discipline.

   Isolation inventory: the workload is re-instantiated per session
   (fresh guest memory), `Run.run` creates a fresh Monitor + Machine +
   translator, and the checkpoint dir (when given) is
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
  injected : int;  (** faults the session's injector fired, all classes *)
  storage_injected : int;  (** disk faults its storage backend fired *)
}

let ok o = Result.is_ok o.result

(** An outcome for a session that never ran — the pool shed it at
    shutdown, or its deadline passed while it sat in the queue. *)
let cancelled ~id ~workload why =
  { id; workload; seconds = 0.;
    result = Error (Cancelled why); injected = 0; storage_injected = 0 }

(** The absolute instant [ms] milliseconds from now: how a request's
    budget becomes a session's [deadline_at] at admission. *)
let deadline_in ms = Unix.gettimeofday () +. (float_of_int ms /. 1000.)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(** Run workload [name] as session [id] against [shared]'s cache
    directory, under [stack] ({!Guard.Stack}; default: nothing
    attached).  Translation work is gated through [shared] so a cold
    fleet translates each page once; every cache key the session
    touches is pinned for its lifetime, then unpinned and the byte
    budget enforced as it leaves — on every exit path.

    The session adapts the stack to itself: the cache is [shared]'s
    directory (the stack's [tcache_dir] does not apply), a checkpoint
    directory becomes [<dir>/session-<id>] and is removed as the
    session leaves, and the injector and storage backend are seeded
    from [id].  An explicit [tcache_io] overrides the stack's storage
    backend.  It attaches the stack itself ({!Guard.Stack.attach})
    rather than going through {!Guard.Stack.run}: its deadline budget
    is what is left at attach time, after the reference run, and its
    outcome reports the faults that fired on every exit path, a
    raising run included.

    [deadline_at] is an absolute [Unix.gettimeofday] instant: already
    past, the session fails [Deadline] without running (it expired in
    the queue); otherwise the remaining time becomes a
    {!Guard.Watchdog} session budget checked at every commit boundary.
    [instrument] runs after the session wires its gate and pin hooks
    and before the stack attaches. *)
let run ?(stack = Guard.Stack.default) ?deadline_at ?instrument ?tcache_io
    ~shared ~id name =
  let touched : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let touched_lock = Mutex.create () in
  let store = ref None in
  let stack =
    { stack with
      checkpoint =
        Option.map
          (fun (c : Guard.Stack.checkpoint) ->
            { c with
              dir = Filename.concat c.dir (Printf.sprintf "session-%d" id) })
          stack.checkpoint }
  in
  let disk =
    match tcache_io with Some _ -> None | None -> Guard.Stack.disk ~id stack
  in
  let tcache_io = match disk with Some (io, _) -> Some io | None -> tcache_io in
  let inject = ref None in
  let attach (vmm : Vmm.Monitor.t) =
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
    Option.iter (fun f -> f vmm) instrument;
    let watchdog =
      match deadline_at with
      | None -> stack.watchdog
      | Some d ->
        (* session budget = time left from queue admission to now *)
        { stack.watchdog with session_s = Some (d -. Unix.gettimeofday ()) }
    in
    inject := Guard.Stack.attach ~id ~workload:name { stack with watchdog } vmm
  in
  let t0 = Monotonic_clock.now () in
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
        Vmm.Run.run ~params:stack.params
          ?hierarchy:(Guard.Stack.hierarchy stack) ~instrument:attach
          ~tcache_dir:(Shared.dir shared) ?tcache_io w
      with
      | r -> Ok r
      | exception Vmm.Run.Mismatch msg -> Error (Mismatch msg)
      | exception Guard.Watchdog.Expired s -> Error (Deadline s)
      | exception e -> Error (Crash (Printexc.to_string e))
  in
  let seconds = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
  (* leave: drop this session's pins, apply the capacity budget now
     that its hot set no longer needs protection, remove its
     checkpoints.  Best-effort each, and unconditional — a crashed or
     deadlined session must not leak pins into the shared table. *)
  Hashtbl.iter (fun key () -> Shared.unpin shared ~key) touched;
  (match !store with
  | Some s -> ( try Shared.enforce_budget shared s with _ -> ())
  | None -> ());
  Option.iter
    (fun (c : Guard.Stack.checkpoint) -> rm_rf c.dir)
    stack.checkpoint;
  { id; workload = name; seconds; result;
    injected = Option.fold ~none:0 ~some:Fault.Inject.total !inject;
    storage_injected =
      Option.fold ~none:0 ~some:(fun (_, i) -> Fsio.faults_fired i) disk }

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
          ("degraded", Bool (Vmm.Run.degraded r.stats)) ]
      @ Obs.Flight.counter_fields r.stats)
