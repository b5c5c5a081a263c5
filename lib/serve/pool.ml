(* A bounded pool of OCaml 5 domains draining a shared work queue.

   Sessions are CPU-bound (a whole VMM run each), so the pool is sized
   in domains, not threads: [domains] runners are spawned once and each
   loops dequeue → run until [shutdown].  Jobs are thunks that own
   their results (the fleet writes into a preallocated slot per
   session); a job that raises is contained — the exception is caught
   and dropped by the runner, never the domain — so one broken session
   cannot take a runner down with it.  [drain] is the barrier the fleet
   needs: it returns once the queue is empty AND every dequeued job has
   finished.

   Two admission properties matter to the daemon sitting on top:

   - The queue is bounded ([queue_cap]).  [try_submit] refuses work
     when the backlog is full instead of letting latency grow without
     limit — that refusal is what the server turns into `ERR busy`
     with a retry hint.  [submit] (used by in-process drivers that
     would rather wait than shed) still always enqueues.

   - Shutdown is not silent.  Every job may carry a [cancel] callback;
     when [shutdown] finds jobs still queued it runs their cancels
     instead of their bodies, so a connection thread blocked on a
     queued session gets an answer ("cancelled") rather than a
     permanent hang.  Running jobs finish normally. *)

type job = {
  run : unit -> unit;
  cancel : unit -> unit;  (** called instead of [run] if shed at shutdown *)
}

type t = {
  q : job Queue.t;
  queue_cap : int;         (* refuse [try_submit] past this backlog *)
  lock : Mutex.t;
  nonempty : Condition.t;  (* signalled on submit and shutdown *)
  all_done : Condition.t;  (* signalled when a runner goes idle *)
  mutable active : int;    (* jobs currently executing *)
  mutable closed : bool;
  mutable runners : unit Domain.t list;
}

let runner t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.q then begin
      (* closed and drained *)
      Mutex.unlock t.lock
    end
    else begin
      let job = Queue.pop t.q in
      t.active <- t.active + 1;
      Mutex.unlock t.lock;
      (try job.run () with _ -> ());
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      if t.active = 0 && Queue.is_empty t.q then Condition.broadcast t.all_done;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ?(queue_cap = max_int) ~domains () =
  if domains <= 0 then invalid_arg "Pool.create: domains must be positive";
  if queue_cap < 0 then invalid_arg "Pool.create: queue_cap must be >= 0";
  let t =
    { q = Queue.create (); queue_cap; lock = Mutex.create ();
      nonempty = Condition.create (); all_done = Condition.create ();
      active = 0; closed = false; runners = [] }
  in
  t.runners <-
    List.init domains (fun _ -> Domain.spawn (runner t));
  t

let size t = List.length t.runners
let queue_cap t = t.queue_cap

(** Queued (not yet running) jobs right now. *)
let depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.q in
  Mutex.unlock t.lock;
  d

(** Jobs executing right now. *)
let active t =
  Mutex.lock t.lock;
  let a = t.active in
  Mutex.unlock t.lock;
  a

let enqueue_locked t job =
  Queue.push job t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

let no_cancel () = ()

(** Unconditional enqueue — in-process drivers that prefer waiting over
    shedding.  Raises once the pool is shut down. *)
let submit ?(cancel = no_cancel) t run =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  enqueue_locked t { run; cancel }

(** Bounded enqueue: [`Busy depth] when the backlog is at capacity (the
    caller turns this into load shedding), [`Closed] after shutdown. *)
let try_submit ?(cancel = no_cancel) t run =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    `Closed
  end
  else begin
    let d = Queue.length t.q in
    if d >= t.queue_cap then begin
      Mutex.unlock t.lock;
      `Busy d
    end
    else begin
      enqueue_locked t { run; cancel };
      `Accepted
    end
  end

(** Block until every submitted job has completed.  Safe to interleave
    with further submits from other threads, but then "drained" is a
    moment, not a state. *)
let drain t =
  Mutex.lock t.lock;
  while t.active > 0 || not (Queue.is_empty t.q) do
    Condition.wait t.all_done t.lock
  done;
  Mutex.unlock t.lock

(** Stop accepting work, cancel everything still queued, let running
    jobs finish, join the domains.  The cancel callbacks run on the
    shutting-down thread, outside the pool lock, so they may take locks
    of their own (the server's wake their waiting connection
    threads). *)
let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  let shed = Queue.fold (fun acc j -> j :: acc) [] t.q in
  Queue.clear t.q;
  Condition.broadcast t.nonempty;
  (* waiters in [drain] must see the emptied queue too *)
  Condition.broadcast t.all_done;
  Mutex.unlock t.lock;
  List.iter (fun j -> try j.cancel () with _ -> ()) (List.rev shed);
  List.iter Domain.join t.runners
