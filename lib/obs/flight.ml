(* The flight recorder: always-on, bounded, and only interesting when
   something goes wrong.

   A small ring of recent VMM events runs alongside every instrumented
   execution; on a trigger — shadow divergence, watchdog strike,
   quarantine, fatal signal, verification mismatch — the recorder
   writes a crash-dump file with everything a post-mortem needs: the
   event tail, the VMM's counters, the metrics registry, the per-page
   health table, and the region graph.

   Overhead discipline: because the recorder is on by default, its
   record path must cost next to nothing.  The ring stores the
   {!Vmm.Monitor.event} values themselves — already allocated by the
   monitor's emit — so recording is two array/int stores and zero
   allocation.  Rendering an event to JSON ({!render}) happens only at
   dump time, and at export for the full-size trace ring that
   [daisy run --trace-out] keeps in the same {!Ring} type.

   Dump policy is first-wins per reason: the first quarantine of a run
   captures the context that *led to* the failure (the trigger event is
   the newest entry in the tail); later repeats of the same reason are
   suppressed so a quarantine storm cannot turn the recorder into an
   I/O load.  Dumping is best-effort — a recorder must never take down
   the run it is recording, so I/O errors are swallowed and reported
   only through the return value. *)

module Monitor = Vmm.Monitor

(** A bounded ring of raw events: when full, the oldest is overwritten
    and [dropped] counts what was lost, so a run's tail is always
    retained.  A ring belongs to one VMM, on one domain. *)
module Ring = struct
  type t = {
    buf : Monitor.event array;
    mutable len : int;      (* valid entries *)
    mutable head : int;     (* next write position *)
    mutable total : int;    (* events ever pushed *)
  }

  (* never surfaced: [len] bounds every read *)
  let dummy = Monitor.External_interrupt { cycle = -1 }

  let create capacity =
    if capacity <= 0 then invalid_arg "Flight.Ring.create: capacity";
    { buf = Array.make capacity dummy; len = 0; head = 0; total = 0 }

  (** Two stores, no allocation. *)
  let push r ev =
    let capacity = Array.length r.buf in
    r.buf.(r.head) <- ev;
    r.head <- r.head + 1;
    if r.head = capacity then r.head <- 0;
    if r.len < capacity then r.len <- r.len + 1;
    r.total <- r.total + 1

  let total r = r.total
  let dropped r = r.total - r.len

  (** The retained events, oldest first. *)
  let events r =
    let capacity = Array.length r.buf in
    List.init r.len (fun i ->
        r.buf.((r.head - r.len + i + capacity) mod capacity))
end

type t = {
  ring : Ring.t;
  dir : string;
  mutable metrics : Metrics.t option;
  mutable profile : Profile.t option;
  mutable vmm : Monitor.t option;
      (** whose counters and page-health table a dump reads (set by
          Bridge.attach, which is when a VMM exists) *)
  mutable dumps : (string * string) list;
      (** (reason, path) already written, newest first *)
  io : Fsio.t;
  mutable io_degraded : int;
      (** storage faults absorbed while writing dumps *)
  mutable pending : (string * string) list;
      (** (file, contents) dumps a storage fault kept off the disk —
          a bounded lossy buffer so the post-mortem survives in memory
          and fsck/HEALTH can report the loss *)
}

let default_capacity = 8192

(* dumps parked in memory by storage faults: enough for every distinct
   trigger reason, small enough that a fault storm cannot grow the heap *)
let max_pending = 16

let create ?(capacity = default_capacity) ?(dir = "daisy-crash")
    ?(io = Fsio.real) () =
  { ring = Ring.create capacity; dir; metrics = None; profile = None;
    vmm = None; dumps = []; io; io_degraded = 0; pending = [] }

let set_metrics t m = t.metrics <- Some m
let set_profile t p = t.profile <- Some p
let set_vmm t vmm = t.vmm <- Some vmm

(** The recorder's event feed (Bridge pushes every event). *)
let push t ev = Ring.push t.ring ev

let total t = Ring.total t.ring
let dropped t = Ring.dropped t.ring

(** Ring contents, oldest first. *)
let events t = Ring.events t.ring

let dumps t = List.rev t.dumps

(** Storage faults absorbed while dumping (each parked the rendered
    dump in memory instead). *)
let io_degraded t = t.io_degraded

(** Dumps currently parked in memory by storage faults: [(file,
    contents)], oldest first. *)
let pending_dumps t = List.rev t.pending

(* --- event rendering ------------------------------------------------

   The single event -> (ts, name, phase, args) mapping, shared by the
   crash dump and the trace exports below, so a dump's tail is exactly
   the trace a trace ring would have kept. *)

type phase = B  (** span begin *)
           | E  (** span end *)
           | I  (** instant *)

let phase_string = function B -> "B" | E -> "E" | I -> "i"

let deadline_stage_string : Monitor.deadline_stage -> string = function
  | Dtranslate -> "translate"
  | Dcompile -> "compile"
  | Dprogress -> "progress"

let cross_kind_string : Monitor.cross_kind -> string = function
  | Xdirect -> "direct"
  | Xlr -> "lr"
  | Xctr -> "ctr"
  | Xgpr -> "gpr"
  | Xinvalid_entry -> "invalid_entry"

let rollback_kind_string : Monitor.rollback_kind -> string = function
  | RbAlias -> "alias"
  | RbSelfmod -> "selfmod"
  | RbFault -> "fault"
  | RbTag -> "tag"
  | RbTagged_target -> "tagged_target"

let render (ev : Monitor.event) :
    int * string * phase * (string * Json.t) list =
  match ev with
  | Translate_begin { cycle; page; entry } ->
    ( cycle, "translate", B,
      [ ("page", Json.Int page); ("entry", Json.Int entry) ] )
  | Translate_end { cycle; page; entry; insns; vliws; bytes; groups } ->
    ( cycle, "translate", E,
      [ ("page", Json.Int page); ("entry", Json.Int entry);
        ("insns", Json.Int insns); ("vliws", Json.Int vliws);
        ("bytes", Json.Int bytes); ("groups", Json.Int groups) ] )
  | Interp_begin { cycle; pc } ->
    (cycle, "interp", B, [ ("pc", Json.Int pc) ])
  | Interp_end { cycle; pc; insns; next } ->
    ( cycle, "interp", E,
      [ ("pc", Json.Int pc); ("insns", Json.Int insns);
        ("next", Json.Int next) ] )
  | Rolled_back { cycle; pc; kind } ->
    ( cycle, "rollback", I,
      [ ("pc", Json.Int pc); ("kind", Json.Str (rollback_kind_string kind)) ]
    )
  | Cross_page { cycle; kind; target } ->
    ( cycle, "cross_page", I,
      [ ("kind", Json.Str (cross_kind_string kind));
        ("target", Json.Int target) ] )
  | Exit_edge { cycle; src; dst; kind } ->
    ( cycle, "exit_edge", I,
      [ ("src", Json.Int src); ("dst", Json.Int dst);
        ("kind", Json.Str (Profile.edge_kind_string kind)) ] )
  | Page_enter { cycle; page; vliws_so_far = _ } ->
    (cycle, "page_enter", I, [ ("page", Json.Int page) ])
  | Retranslate_adaptive { cycle; page } ->
    (cycle, "adaptive_retranslation", I, [ ("page", Json.Int page) ])
  | Castout { cycle; page } ->
    (cycle, "castout", I, [ ("page", Json.Int page) ])
  | Code_invalidated { cycle; page } ->
    (cycle, "code_invalidation", I, [ ("page", Json.Int page) ])
  | Syscall_trap { cycle; next } ->
    (cycle, "syscall", I, [ ("next", Json.Int next) ])
  | External_interrupt { cycle } -> (cycle, "external_interrupt", I, [])
  | Tcache_hit { cycle; page; vliws; bytes; seconds } ->
    ( cycle, "tcache_hit", I,
      [ ("page", Json.Int page); ("vliws", Json.Int vliws);
        ("bytes", Json.Int bytes); ("ms", Json.Float (seconds *. 1000.)) ] )
  | Tcache_miss { cycle; page } ->
    (cycle, "tcache_miss", I, [ ("page", Json.Int page) ])
  | Tcache_corrupt { cycle; page; reason } ->
    ( cycle, "tcache_corrupt", I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Tcache_quarantine { cycle; page; reason } ->
    ( cycle, "tcache_quarantine", I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Tcache_persist { cycle; page; bytes } ->
    ( cycle, "tcache_persist", I,
      [ ("page", Json.Int page); ("bytes", Json.Int bytes) ] )
  | Tcache_evict { cycle; page } ->
    (cycle, "tcache_evict", I, [ ("page", Json.Int page) ])
  | Tcache_skipped { cycle; page; reason } ->
    ( cycle, "tcache_skipped", I,
      [ ("page", Json.Int page); ("reason", Json.Str reason) ] )
  | Translator_fault { cycle; page; entry; reason } ->
    ( cycle, "translator_fault", I,
      [ ("page", Json.Int page); ("entry", Json.Int entry);
        ("reason", Json.Str reason) ] )
  | Exec_fault { cycle; page; pc; reason } ->
    ( cycle, "exec_fault", I,
      [ ("page", Json.Int page); ("pc", Json.Int pc);
        ("reason", Json.Str reason) ] )
  | Quarantine { cycle; page; failures; until } ->
    ( cycle, "quarantine", I,
      [ ("page", Json.Int page); ("failures", Json.Int failures);
        ("until", Json.Int until) ] )
  | Degrade_retry { cycle; page } ->
    (cycle, "degrade_retry", I, [ ("page", Json.Int page) ])
  | Interp_pinned { cycle; page } ->
    (cycle, "interp_pinned", I, [ ("page", Json.Int page) ])
  | Vliw_compiled { cycle; page; vliws; seconds } ->
    ( cycle, "vliw_compiled", I,
      [ ("page", Json.Int page); ("vliws", Json.Int vliws);
        ("ms", Json.Float (seconds *. 1000.)) ] )
  | Deadline { cycle; page; stage; seconds } ->
    ( cycle, "deadline", I,
      [ ("page", Json.Int page);
        ("stage", Json.Str (deadline_stage_string stage));
        ("ms", Json.Float (seconds *. 1000.)) ] )
  | Shadow_divergence { cycle; page; pc; reason } ->
    ( cycle, "shadow_divergence", I,
      [ ("page", Json.Int page); ("pc", Json.Int pc);
        ("reason", Json.Str reason) ] )
  | Checkpoint_written { cycle; seq; bytes; pages; seconds } ->
    ( cycle, "checkpoint", I,
      [ ("seq", Json.Int seq); ("bytes", Json.Int bytes);
        ("pages", Json.Int pages); ("ms", Json.Float (seconds *. 1000.)) ] )
  | Region_promoted { cycle; id; pages; insns; vliws; seconds; cached } ->
    ( cycle, "region_promoted", I,
      [ ("id", Json.Int id); ("pages", Json.Int pages);
        ("insns", Json.Int insns); ("vliws", Json.Int vliws);
        ("ms", Json.Float (seconds *. 1000.)); ("cached", Json.Bool cached) ] )
  | Region_deopt { cycle; id; page; reason } ->
    ( cycle, "region_deopt", I,
      [ ("id", Json.Int id); ("page", Json.Int page);
        ("reason", Json.Str reason) ] )
  | Tcache_degraded { cycle; page } ->
    (cycle, "tcache_degraded", I, [ ("page", Json.Int page) ])
  | Storage_fault { cycle; store; op; reason } ->
    ( cycle, "storage_fault", I,
      [ ("store", Json.Str store); ("op", Json.Str op);
        ("reason", Json.Str reason) ] )

(** The VMM's counter table ({!Monitor.counters} and
    {!Monitor.timings}) as JSON fields under the table's names: the
    one rendering behind crash dumps, the serve replies and HEALTH. *)
let counter_fields (s : Monitor.stats) =
  List.map (fun (r : int Monitor.row) -> (r.name, Json.Int (r.get s)))
    Monitor.counters
  @ List.map (fun (r : float Monitor.row) -> (r.name, Json.Float (r.get s)))
      Monitor.timings

(* The degradation ladder's state: which pages have strikes, how long
   their backoff runs, which are pinned. *)
let health_json (vmm : Monitor.t) =
  let rows =
    Hashtbl.fold
      (fun page (h : Monitor.health) acc -> (page, h) :: acc)
      vmm.page_health []
    |> List.sort compare
  in
  Json.Arr
    (List.map
       (fun (page, (h : Monitor.health)) ->
         Json.Obj
           [ ("page", Json.Int page); ("failures", Json.Int h.failures);
             ("backoff_until", Json.Int h.backoff_until);
             ("pinned_interp", Json.Bool h.pinned_interp) ])
       rows)

(** One event as {"ts":..,"ph":..,"name":..,<args>}: a crash dump's
    tail entry and a JSONL trace line. *)
let ev_json ev =
  let ts, name, ph, args = render ev in
  Json.Obj
    (("ts", Json.Int ts)
    :: ("ph", Json.Str (phase_string ph))
    :: ("name", Json.Str name)
    :: args)

(* --- trace exports ---------------------------------------------------

   Timestamps are VLIW cycles (the simulator's clock), not wall time. *)

(** Chrome trace_event JSON ("JSON object format"), loadable in
    Perfetto.  All events share pid/tid 1; instants carry thread
    scope. *)
let to_chrome r =
  let chrome ev =
    let ts, name, ph, args = render ev in
    Json.Obj
      ([ ("name", Json.Str name); ("ph", Json.Str (phase_string ph));
         ("ts", Json.Int ts); ("pid", Json.Int 1); ("tid", Json.Int 1) ]
      @ (match ph with I -> [ ("s", Json.Str "t") ] | B | E -> [])
      @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.map chrome (Ring.events r)));
      ("displayTimeUnit", Json.Str "ns");
      ("otherData",
       Json.Obj
         [ ("clock", Json.Str "vliw-cycles");
           ("dropped_events", Json.Int (Ring.dropped r)) ]) ]

(** One {!ev_json} object per line. *)
let to_jsonl r oc =
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (ev_json ev));
      output_char oc '\n')
    (Ring.events r)

(* --- crash dumps ----------------------------------------------------- *)

let opt f = function Some v -> f v | None -> Json.Null

let dump_json t ~reason =
  Json.Obj
    [ ("reason", Json.Str reason);
      ("events", Json.Arr (List.map ev_json (events t)));
      ("events_total", Json.Int (total t));
      ("events_dropped", Json.Int (dropped t));
      ("counters",
       opt (fun (v : Monitor.t) -> Json.Obj (counter_fields v.stats)) t.vmm);
      ("metrics", opt Metrics.to_json t.metrics);
      ("health", opt health_json t.vmm);
      ("profile", opt (fun p -> Profile.to_json p) t.profile) ]

(* A dump a storage fault kept off the disk is parked in memory — the
   post-mortem is exactly what we must not lose to the failure it
   describes — bounded so a fault storm cannot grow the heap. *)
let park t file contents =
  t.io_degraded <- t.io_degraded + 1;
  if List.length t.pending < max_pending
     && not (List.mem_assoc file t.pending)
  then t.pending <- (file, contents) :: t.pending

(** Write a crash dump for [reason] unless one was already written this
    run.  Returns the path written, [None] when suppressed or when the
    write failed (the recorder never raises — an I/O error or storage
    fault parks the dump in memory instead; see {!pending_dumps}). *)
let dump t ~reason =
  if List.mem_assoc reason t.dumps then None
  else
    let file = "crash-" ^ reason ^ ".json" in
    let contents = Json.to_string (dump_json t ~reason) in
    match
      Fsio.mkdir_p Fsio.real t.dir;
      Fsio.commit t.io ~dir:t.dir ~file contents;
      (match t.profile with
      | Some p -> (
        let ffile = "crash-" ^ reason ^ ".folded" in
        let folded = Profile.to_collapsed p in
        (* the .json landed; losing only the .folded is a degradation,
           not a failed dump *)
        try Fsio.commit t.io ~dir:t.dir ~file:ffile folded
        with Sys_error _ | Fsio.Fault _ -> park t ffile folded)
      | None -> ());
      Filename.concat t.dir file
    with
    | path ->
      t.dumps <- (reason, path) :: t.dumps;
      Some path
    | exception (Sys_error _ | Fsio.Fault _) ->
      park t file contents;
      None
