(* The supervision front door: one call wires checkpointing, watchdog
   deadlines and shadow verification into a VMM, and one exception
   carries a graceful SIGTERM shutdown out of it.

   The checkpoint cadence and the termination poll both subscribe to
   the VMM's tick ({!Vmm.Monitor.on_tick}), which fires at committed
   boundaries only — so a snapshot is always of a precise architected
   state, and a SIGTERM never tears a packet in half: the handler just
   sets a flag, and the next boundary writes a final snapshot and
   unwinds with {!Terminated}.  The driver maps that to exit 143
   (128+SIGTERM), the code a plainly-killed process would have —
   except this one left a resumable checkpoint behind. *)

exception Terminated
(** raised at a commit boundary after the final snapshot is written *)

(* A flag, not a callback: OCaml signal handlers run at safe points,
   and the only async-signal-safe action is setting a word. *)
let terminate = ref false

let request_termination () = terminate := true

(** Install a SIGTERM handler that requests a graceful stop at the next
    commit boundary.  No-op on platforms without signals. *)
let install_sigterm () =
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> terminate := true))
  with Invalid_argument _ | Sys_error _ -> ()

(** Attach the supervision stack to [vmm].  [checkpoint_dir] enables
    periodic snapshots every [checkpoint_every] VMM cycles (sequence
    numbering continues from [checkpoint_seq] on resume); [watchdog]
    sets the deadline budgets; [shadow] enables sampled verification;
    [flight] is dumped (reason ["sigterm"]) before the graceful-stop
    unwind, so even a killed run leaves its event tail behind.  The
    termination poll rides the checkpoint cadence's tick: only a
    checkpointed run is worth stopping gracefully (and installing the
    handler for), so without a checkpoint nothing polls, flight or not.
    Returns the checkpointer, if one was created, so callers can force a
    final snapshot. *)
let attach ?checkpoint_dir ?(checkpoint_every = 50_000) ?(checkpoint_seq = 0)
    ?(watchdog = Watchdog.none) ?shadow ?flight ~workload
    (vmm : Vmm.Monitor.t) =
  Watchdog.attach watchdog vmm;
  (match shadow with
  | Some cfg -> ignore (Shadow.attach ~workload cfg vmm)
  | None -> ());
  let ck =
    match checkpoint_dir with
    | None -> None
    | Some dir ->
      Some
        (Checkpoint.attach ~dir ~every:checkpoint_every ~seq:checkpoint_seq
           ~workload vmm)
  in
  Option.iter
    (fun ck ->
      Vmm.Monitor.on_tick vmm (fun ~pc ->
          if !terminate then begin
            ignore (Checkpoint.write ck ~pc);
            Option.iter
              (fun f -> ignore (Obs.Flight.dump f ~reason:"sigterm"))
              flight;
            raise Terminated
          end;
          Checkpoint.maybe ck ~pc))
    ck;
  ck
