(* Jittered exponential backoff: the one retry discipline every
   polling/retrying path in the serve layer shares.

   Fixed-interval retry loops are how a fleet of clients turns one
   hiccup into a synchronized stampede: everyone who failed at t fails
   again together at t+d.  This module owns the alternative — sleeps
   that double per attempt, are capped, and carry a random jitter so
   retriers decorrelate — plus the two contracts the serve protocol
   adds on top:

   - a server hint ([retry_after_ms] from an `ERR busy` shed) overrides
     the computed backoff for that attempt: the daemon knows its queue
     better than the client's exponent does;
   - an absolute deadline truncates the last sleep and then stops the
     loop, so a caller with a request budget never oversleeps it.

   Used by {!Client.wait_ready} (daemon-start polling), the client's
   busy/unreachable retries, and {!Fleet.run}'s admission loop. *)

type policy = {
  attempts : int;      (** total tries, including the first *)
  base_s : float;      (** backoff before the second try *)
  max_s : float;       (** backoff cap *)
  multiplier : float;  (** backoff growth per attempt *)
  jitter : float;      (** fraction of each sleep randomized, 0..1 *)
}

let default =
  { attempts = 6; base_s = 0.05; max_s = 2.0; multiplier = 2.0; jitter = 0.5 }

(** How long to sleep after failed attempt [attempt] (0-based), or
    [None] when the policy says give up — attempts exhausted, or the
    whole remaining time to [deadline] already spent.  [hint_s] is a
    server-provided floor-and-override (jittered upward only, so a
    herd sheds together but returns spread out). *)
let delay ?hint_s ?deadline policy ~rng ~attempt =
  if attempt >= policy.attempts - 1 then None
  else begin
    let exp =
      policy.base_s *. (policy.multiplier ** float_of_int attempt)
    in
    let nominal = match hint_s with Some h -> h | None -> min exp policy.max_s in
    let jittered =
      nominal *. (1. +. (policy.jitter *. Random.State.float rng 1.))
    in
    match deadline with
    | None -> Some jittered
    | Some d ->
      let left = d -. Unix.gettimeofday () in
      if left <= 0. then None else Some (min jittered left)
  end

let sleep s = if s > 0. then ignore (Unix.select [] [] [] s)

(** Run [f ~attempt] until it returns [`Ok] or [`Fail], or the policy
    gives up on a chain of [`Retry]s.  A [`Retry] carries an optional
    server sleep hint (seconds).  [deadline] is an absolute
    [Unix.gettimeofday] instant; [seed] makes the jitter reproducible
    in tests. *)
let run ?(policy = default) ?seed ?deadline f =
  let rng =
    Random.State.make
      (match seed with
      | Some s -> [| s; 0x52455452 |]
      | None -> [| Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ()) |])
  in
  let rec go attempt =
    match f ~attempt with
    | `Ok v -> Ok v
    | `Fail e -> Error (`Fail e)
    | `Retry (reason, hint_s) -> (
      match delay ?hint_s ?deadline policy ~rng ~attempt with
      | None -> Error (`Exhausted reason)
      | Some s ->
        sleep s;
        go (attempt + 1))
  in
  go 0
