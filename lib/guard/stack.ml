(* The run stack: everything a verified run attaches to its VMM, as one
   value, attached in one place.

   Six components decorate a run — observers, fault injector,
   checkpointer, watchdog, shadow verifier and tier-2 driver.  The
   monitor composes their event and tick subscribers, so no attach
   order can unhook one; {!attach} still fixes the order, so
   subscribers run the same way on every run.  [daisy run],
   [daisy resume], [daisy fuzz], the serve sessions and the bench all
   describe their stack as a {!t} instead of wiring components.

   Per-session seeds live here too: given [~id], the injector and the
   storage backend are seeded [seed + id * 0x9E3779B9], so every
   session of a fleet draws its own reproducible fault stream. *)

module Monitor = Vmm.Monitor

type checkpoint = {
  dir : string;
  every : int;  (** VMM cycles between snapshots *)
}

(** The snapshot cadence [daisy run] and the serve sessions default to. *)
let default_every = 50_000

type t = {
  params : Translator.Params.t;
  finite : bool;  (** attach the paper's 24-issue cache hierarchy *)
  tcache_dir : string option;  (** persistent translation cache *)
  storage : Fsio.fault_config option;
      (** the cache's storage backend lies, with seeded disk faults *)
  faults : Fault.Inject.config option;
  observers : Obs.Bridge.t option;
      (** trace ring, metrics, region profile and flight recorder,
          created before the run (see {!observers}) *)
  checkpoint : checkpoint option;
  watchdog : Watchdog.config;
  shadow : Shadow.config option;
  tier2 : Obs.Tier.config option;
}

(** Nothing attached: a bare {!Vmm.Run.run}. *)
let default =
  { params = Translator.Params.default; finite = false; tcache_dir = None;
    storage = None; faults = None; observers = None; checkpoint = None;
    watchdog = Watchdog.none; shadow = None; tier2 = None }

(** Create the observability sinks: a trace ring of [trace_cap] events,
    a metrics registry, a region profile, and a flight recorder that
    dumps to [fst flight] from a ring of [snd flight] events.  They
    exist before the run, so a caller still holds the flight recorder
    when the run raises.  The profile is also created whenever a flight
    recorder is: crash dumps draw its region graph.  [None] when no
    sink is asked for. *)
let observers ?trace_cap ?(metrics = false) ?(profile = false) ?flight
    ~page_size () =
  let tracer = Option.map Obs.Flight.Ring.create trace_cap in
  let metrics = if metrics then Some (Obs.Metrics.create ()) else None in
  let flight =
    Option.map
      (fun (dir, capacity) -> Obs.Flight.create ~capacity ~dir ())
      flight
  in
  let profile =
    if profile || Option.is_some flight then
      Some (Obs.Profile.create ~page_size ())
    else None
  in
  match (tracer, metrics, profile, flight) with
  | None, None, None, None -> None
  | _ -> Some (Obs.Bridge.create ?tracer ?metrics ?profile ?flight ())

let flight t = Option.bind t.observers (fun (b : Obs.Bridge.t) -> b.flight)

(** Does the run carry the supervision stack ({!Supervise.attach})? *)
let supervised t =
  Option.is_some t.checkpoint || Option.is_some t.shadow
  || t.watchdog <> Watchdog.none

(** The paper's 24-issue cache hierarchy, when the stack asks for it. *)
let hierarchy t =
  if t.finite then Some (Memsys.Hierarchy.paper_24issue ()) else None

let session_seed ?id seed =
  match id with None -> seed | Some id -> seed + (id * 0x9E3779B9)

(** The storage backend for session [id], with the injector that counts
    the faults it fires; [None] when the stack's disk does not lie. *)
let disk ?id t =
  Option.map
    (fun (fc : Fsio.fault_config) ->
      Fsio.faulty { fc with seed = session_seed ?id fc.seed })
    t.storage

(* [attach], with the checkpointer numbering its snapshots from [seq] *)
let attach_at ~seq ?id ~workload t vmm =
  Option.iter (fun b -> Obs.Bridge.attach b vmm) t.observers;
  let inject =
    Option.map
      (fun (cfg : Fault.Inject.config) ->
        Fault.Inject.create { cfg with seed = session_seed ?id cfg.seed })
      t.faults
  in
  Option.iter (fun i -> Fault.Inject.attach i vmm) inject;
  if supervised t then
    ignore
      (Supervise.attach
         ?checkpoint_dir:(Option.map (fun c -> c.dir) t.checkpoint)
         ?checkpoint_every:(Option.map (fun c -> c.every) t.checkpoint)
         ~checkpoint_seq:seq ~watchdog:t.watchdog ?shadow:t.shadow
         ?flight:(flight t)
         ~workload vmm);
  Option.iter (fun cfg -> ignore (Obs.Tier.attach ~cfg vmm)) t.tier2;
  inject

(** Attach [t] to [vmm], always in one order: the observers' bridge,
    the fault injector, the supervision stack (watchdog, shadow,
    checkpoints) and the tier-2 driver.  With a checkpoint, the flight
    recorder also dumps on a graceful SIGTERM stop ({!Supervise.attach}
    polls for it only then); the caller installs the handler
    ({!Supervise.install_sigterm}).  [workload] names the run in its
    checkpoints and shadow reproducers.  Returns the fault injector, if
    any, so the caller can read how often each class fired. *)
let attach ?id ~workload t vmm = attach_at ~seq:0 ?id ~workload t vmm

(** Run [w] under [t] and verify it against the reference interpreter
    ({!Vmm.Run.run}, which raises its [Mismatch]).  With [resume], the
    run continues from the loaded checkpoint: state is restored before
    the stack attaches, so the checkpointer's cadence baseline is the
    restored clock, and snapshots continue the directory's numbering
    (pass the snapshot's [s_every] as the checkpoint cadence to keep
    its cadence too).  Returns the result and the fault injector. *)
let run ?resume t (w : Workloads.Wl.t) =
  let inject = ref None in
  let prepare vmm =
    let start, seq =
      match resume with
      | None -> (None, 0)
      | Some (l : Checkpoint.loaded) ->
        let pc, consumed = Checkpoint.restore_into l vmm in
        (Some (pc, max 1 ((w.fuel * 2) - consumed)), l.last.s_seq + 1)
    in
    inject := attach_at ~seq ~workload:w.name t vmm;
    start
  in
  let r =
    Vmm.Run.run ~params:t.params ?hierarchy:(hierarchy t) ~prepare
      ?tcache_dir:t.tcache_dir ?tcache_io:(Option.map fst (disk t)) w
  in
  (r, !inject)
