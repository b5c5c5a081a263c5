(* The tier-2 promotion driver: policy, background compilation and
   atomic swap-in of hot regions.

   Tier-1 is the page-at-a-time one-pass translator; tier-2 is the
   superblock scheduler ({!Baseline.Region}) applied to a hot page or
   inter-page SCC.  This module owns the loop between them:

     observe -> pick candidates -> compile off the hot path -> verify
     -> [Monitor.promote] -> (on assumption failure the monitor deopts
     and we take a strike against the candidate)

   Heat comes from two sources feeding one {!Profile}: the monitor's
   event stream (page enters, exit edges, interpretation), and — because
   a steady-state loop that never leaves its page emits no events at
   all — a committed-boundary tick that samples [vmm.stats.vliws]
   directly.  Candidates are inter-page SCCs from {!Profile.regions}
   plus hot single pages; both kinds are worth the superblock
   scheduler's wider window even without cross-page speculation.

   Compilation runs through an injected [submit] closure (the serve
   layer passes a domain-pool submit; [None] compiles inline).  The
   background job works on an immutable snapshot (member bytes, entry
   points) and never touches the VMM; results come back through a
   mutexed queue drained on the main thread, which re-verifies the
   member bytes before the swap — a self-modifying store during the
   compile simply discards the image.  The swap itself is
   [Monitor.promote]: main-thread table writes consulted only at the
   next cross-page dispatch, so execution never sees a partial
   install.

   Promoted images persist to the translation cache under a key built
   from the member-page *contents* ([Store.region_key]), so warm starts
   re-promote without recompiling ({!warm_start}). *)

module Monitor = Vmm.Monitor
module Translate = Translator.Translate
module Params = Translator.Params

type config = {
  min_heat : int;
      (** per-run execution weight (VLIWs + interpreted instructions)
          a single page must reach to be promoted on its own *)
  edge_threshold : int;
      (** per-run traversal count an exit edge must reach to
          participate in an SCC candidate *)
  max_pages : int;      (** largest member set worth one image *)
  check_every : int;    (** committed boundaries / events between
                            policy evaluations *)
  max_deopts : int;     (** strikes before a candidate is blacklisted *)
  submit : ((unit -> unit) -> unit) option;
      (** background execution; [None] compiles on the caller's
          thread (deterministic, used by tests and --tier2-sync) *)
}

(* Thresholds are deliberately low: the compile runs off the hot path
   (a few ms per region) and a mid-run promotion only pays for the
   VLIWs executed *after* the swap, so waiting for a high bar forfeits
   most of the win.  Empirically on the seed workloads, promotion at
   5k heat captures ~95% of the region's steady state; at 100k it
   captures about half and the end-to-end ILP lands below tier-1. *)
let default =
  { min_heat = 5_000; edge_threshold = 250; max_pages = 8;
    check_every = 2_048; max_deopts = 3; submit = None }

(* A candidate's identity is its member set; strikes survive deopt and
   gate re-promotion (each strike doubles the heat bar). *)
let set_key members =
  String.concat "," (List.map string_of_int (Array.to_list members))

type snapshot = {
  s_members : int array;       (** sorted tier-1 page bases *)
  s_bytes : string list;       (** member bytes at snapshot time *)
  s_entries : int list;        (** observed entry points, sorted *)
}

type outcome =
  | Compiled of Baseline.Region.compiled
  | Cached of Translate.t * Translate.xpage
  | Failed of string

type t = {
  cfg : config;
  vmm : Monitor.t;
  profile : Profile.t;
  mutable ticks : int;
  mutable events : int;
  strikes : (string, int) Hashtbl.t;       (** set key -> deopt strikes *)
  in_flight : (string, unit) Hashtbl.t;    (** compiles not yet landed *)
  promoted : (int, string) Hashtbl.t;      (** region id -> set key *)
  results : (snapshot * outcome) Queue.t;  (** background -> main thread *)
  results_lock : Mutex.t;
  mutable results_ready : bool;
      (** set by the background thread after a push; read unlocked on
          the main thread so every committed boundary can poll for a
          finished compile without taking the mutex (a one-boundary-
          late read is harmless, a 2048-boundary install delay is not) *)
  (* driver-visible counters (the bench and CLI summaries read these) *)
  mutable considered : int;    (** candidate evaluations *)
  mutable launched : int;      (** compiles started *)
  mutable installed : int;     (** images swapped in *)
  mutable rejected_stale : int;
      (** images discarded because member bytes changed under the
          compile, or the monitor refused the swap *)
}

let create ?(cfg = default) vmm =
  { cfg; vmm;
    profile = Profile.create ~page_size:vmm.Monitor.tr.params.page_size ();
    ticks = 0; events = 0; strikes = Hashtbl.create 8;
    in_flight = Hashtbl.create 8; promoted = Hashtbl.create 8;
    results = Queue.create (); results_lock = Mutex.create ();
    results_ready = false;
    considered = 0; launched = 0; installed = 0; rejected_stale = 0 }

(* --- promotion verdicts (also used by `daisy profile --regions`) ---- *)

(** Would this profiler region be promoted under [cfg]?  Pure policy —
    no VMM state, so the CLI can explain decisions offline. *)
let verdict ~cfg (r : Profile.region) =
  let heat = r.region_vliws in
  let pages = List.length r.rpages in
  if pages > cfg.max_pages then
    Error (Printf.sprintf "spans %d pages > max %d" pages cfg.max_pages)
  else if heat < cfg.min_heat then
    Error (Printf.sprintf "heat %d < min %d" heat cfg.min_heat)
  else Ok heat

(* --- candidate selection ------------------------------------------- *)

let member_bytes t base =
  let mem = t.vmm.Monitor.mem in
  let len = min t.vmm.Monitor.tr.params.page_size (Ppc.Mem.size mem - base) in
  Ppc.Mem.read_string mem base len

(* Entry points tier-1 observed for [base]: the offsets registered in
   its xpage.  A member that was only ever interpreted contributes
   none; the region image lazily extends if control enters there. *)
let observed_entries t base =
  match Hashtbl.find_opt t.vmm.Monitor.tr.pages base with
  | None -> []
  | Some (xp : Translate.xpage) ->
    Hashtbl.fold (fun off _ acc -> (base + off) :: acc) xp.entries []

let required_heat t key =
  let strikes =
    match Hashtbl.find_opt t.strikes key with Some n -> n | None -> 0
  in
  t.cfg.min_heat lsl strikes

let blacklisted t key =
  (match Hashtbl.find_opt t.strikes key with Some n -> n | None -> 0)
  >= t.cfg.max_deopts

(* Regions may grow: a candidate that covers an installed region's
   every member plus at least one more is an *upgrade* — the old image
   is deopted at install time and the wider one takes over (the way a
   hot single page later absorbed into a cross-page SCC should go).
   Anything short of strict growth is ineligible, so {A,B} vs {B,C}
   can never flap. *)
let member_mem members b = Array.exists (Int.equal b) members

let upgrade_ok t members =
  let strict_growth = ref false and ok = ref true in
  Array.iter
    (fun b ->
      match Monitor.region_of t.vmm b with
      | None -> strict_growth := true
      | Some r ->
        if not (Array.for_all (member_mem members) r.Monitor.r_members) then
          ok := false)
    members;
  !ok && !strict_growth

let eligible t members heat =
  let key = set_key members in
  (not (blacklisted t key))
  && (not (Hashtbl.mem t.in_flight key))
  && heat >= required_heat t key
  && Array.length members <= t.cfg.max_pages
  && Array.length members > 0
  && upgrade_ok t members
  && Array.for_all
       (fun b ->
         match Hashtbl.find_opt t.vmm.Monitor.page_health b with
         | Some h -> h.failures = 0 && not h.pinned_interp
         | None -> true)
       members

(* Candidates, hottest first: inter-page SCCs (the profiler's reason to
   exist), then hot single pages (whose win is the wider window alone).
   A page already inside a chosen SCC is not offered again alone. *)
let candidates t =
  let sccs =
    Profile.regions ~threshold:t.cfg.edge_threshold t.profile
    |> List.map (fun (r : Profile.region) ->
           (Array.of_list r.rpages, r.region_vliws))
  in
  let covered = Hashtbl.create 8 in
  List.iter
    (fun (ms, _) -> Array.iter (fun b -> Hashtbl.replace covered b ()) ms)
    sccs;
  let singles =
    Profile.pages_ranked t.profile
    |> List.filter_map (fun (p : Profile.page) ->
           let heat = p.vliws + p.interp_insns in
           if heat >= t.cfg.min_heat && not (Hashtbl.mem covered p.base) then
             Some ([| p.base |], heat)
           else None)
  in
  List.filter (fun (ms, heat) -> eligible t ms heat) (sccs @ singles)

(* --- background compile / cached probe ------------------------------ *)

let push_result t snap outcome =
  Mutex.lock t.results_lock;
  Queue.push (snap, outcome) t.results;
  Mutex.unlock t.results_lock;
  t.results_ready <- true

(* Runs off the main thread (or inline under [submit = None]): probe
   the persistent cache for this exact member-content set, else compile
   fresh.  Touches only the snapshot, [mem] reads of member bytes the
   install step re-verifies, and the results queue. *)
let compile_job t snap () =
  let vmm = t.vmm in
  let t1 = vmm.Monitor.tr.params in
  let outcome =
    match
      let cached =
        match vmm.Monitor.tcache with
        | None -> None
        | Some store -> (
          let fingerprint =
            Baseline.Region.fingerprint
              ~mem_size:(Ppc.Mem.size vmm.Monitor.mem) t1
          in
          let key =
            Tcache.Store.region_key store ~fingerprint
              ~members:snap.s_members ~bytes:snap.s_bytes
          in
          match Tcache.Store.probe_region store ~key ~fingerprint with
          | `Hit (xp, spec_inhibited, _members) ->
            let tr =
              Baseline.Region.translator ~t1 ~frontend:vmm.Monitor.fe
                vmm.Monitor.mem ~members:snap.s_members
            in
            Translate.install tr ~spec_inhibited xp;
            Some (Cached (tr, xp))
          | `Miss | `Corrupt _ | `Skipped _ -> None)
      in
      match cached with
      | Some c -> c
      | None ->
        Compiled
          (Baseline.Region.compile ~t1 ~frontend:vmm.Monitor.fe
             vmm.Monitor.mem ~members:snap.s_members
             ~entries:snap.s_entries)
    with
    | outcome -> outcome
    | exception exn -> Failed (Printexc.to_string exn)
  in
  push_result t snap outcome

let launch t members =
  let key = set_key members in
  (* Seeding is best-effort: the image lazily extends at runtime for
     any address the monitor dispatches into it, and converges to the
     same shape regardless of the seed, so tier-1's observed entries
     are simply a head start for the background compile. *)
  let entries =
    Array.to_list members
    |> List.concat_map (observed_entries t)
    |> List.sort_uniq compare
  in
  if entries = [] then ()
  else begin
    let snap =
      { s_members = members;
        s_bytes = Array.to_list (Array.map (member_bytes t) members);
        s_entries = entries }
    in
    Hashtbl.replace t.in_flight key ();
    t.launched <- t.launched + 1;
    match t.cfg.submit with
    | Some submit -> submit (compile_job t snap)
    | None -> compile_job t snap ()
  end

(* --- install (main thread) ------------------------------------------ *)

let try_install t snap outcome =
  let key = set_key snap.s_members in
  Hashtbl.remove t.in_flight key;
  match outcome with
  | Failed _ ->
    (* undecodable entry, injected translator fault…: strike the
       candidate so a deterministic failure can't relaunch forever *)
    Hashtbl.replace t.strikes key
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.strikes key))
  | Compiled _ | Cached _ ->
    let fresh =
      List.for_all2
        (fun b bytes -> String.equal (member_bytes t b) bytes)
        (Array.to_list snap.s_members) snap.s_bytes
    in
    if not fresh then t.rejected_stale <- t.rejected_stale + 1
    else begin
      (* upgrade: retire any smaller regions this image absorbs before
         the swap — eligibility guaranteed they are strict subsets *)
      let covering =
        Array.to_list snap.s_members
        |> List.filter_map (fun b -> Monitor.region_of t.vmm b)
        |> List.sort_uniq (fun (a : Monitor.region) b ->
               compare a.r_id b.r_id)
      in
      List.iter
        (fun (r : Monitor.region) ->
          Monitor.deopt_region t.vmm r ~page:r.r_members.(0)
            ~reason:"superseded by a larger region")
        covering;
      let tr, insns, seconds, cached =
        match outcome with
        | Compiled c -> (c.c_tr, c.c_insns, c.c_seconds, false)
        | Cached (tr, xp) -> (tr, xp.insns_scheduled, 0., true)
        | Failed _ -> assert false
      in
      match
        Monitor.promote t.vmm ~members:snap.s_members ~tr ~insns ~seconds
          ~cached ()
      with
      | Error _ -> t.rejected_stale <- t.rejected_stale + 1
      | Ok r ->
        t.installed <- t.installed + 1;
        Hashtbl.replace t.promoted r.Monitor.r_id key;
        if not cached then Monitor.tcache_persist_region t.vmm r
    end

let drain t =
  let pending = ref [] in
  t.results_ready <- false;
  Mutex.lock t.results_lock;
  while not (Queue.is_empty t.results) do
    pending := Queue.pop t.results :: !pending
  done;
  Mutex.unlock t.results_lock;
  List.iter (fun (snap, outcome) -> try_install t snap outcome)
    (List.rev !pending)

(* --- the periodic policy evaluation --------------------------------- *)

let consider t =
  t.considered <- t.considered + 1;
  drain t;
  (* credit the VLIWs the current page accumulated since its enter —
     a loop that never crosses pages is otherwise invisible *)
  Profile.flush t.profile ~vliws_total:t.vmm.Monitor.stats.vliws;
  let cands = candidates t in
  if Sys.getenv_opt "DAISY_TIER_DEBUG" <> None then
    Printf.eprintf "tier: consider #%d: %d sccs, candidates [%s]\n%!"
      t.considered
      (List.length (Profile.regions ~threshold:t.cfg.edge_threshold t.profile))
      (String.concat "; "
         (List.map (fun (ms, h) -> Printf.sprintf "%s@%d" (set_key ms) h)
            cands));
  List.iter (fun (members, _) -> launch t members) cands

(* --- wiring ---------------------------------------------------------- *)

let on_event t (ev : Monitor.event) =
  (match ev with
  | Page_enter { page; vliws_so_far; _ } ->
    Profile.enter t.profile ~page ~vliws_so_far
  | Exit_edge { src; dst; kind; _ } ->
    let kind : Profile.edge_kind =
      match kind with
      | Etaken -> Taken | Efall -> Fall | Elr -> Lr | Ectr -> Ctr
      | Egpr -> Gpr | Einterp -> Interp
    in
    Profile.edge t.profile ~src ~dst ~kind
  | Interp_end { pc; insns; _ } -> Profile.interp t.profile ~pc ~insns
  | Region_deopt { id; _ } -> (
    match Hashtbl.find_opt t.promoted id with
    | None -> ()
    | Some key ->
      Hashtbl.remove t.promoted id;
      Hashtbl.replace t.strikes key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.strikes key)))
  | _ -> ());
  t.events <- t.events + 1;
  if t.results_ready then drain t;
  if t.events >= t.cfg.check_every then begin
    t.events <- 0;
    consider t
  end

let on_tick t ~pc:_ =
  t.ticks <- t.ticks + 1;
  if t.results_ready then drain t;
  if t.ticks >= t.cfg.check_every then begin
    t.ticks <- 0;
    consider t
  end

(** Re-promote from the persistent cache: scan the store directory for
    region entries whose member pages currently hold exactly the bytes
    they were compiled from, and swap each in without compiling.  Run
    once before execution starts (a warm fleet comes up already
    promoted). *)
let warm_start t =
  match t.vmm.Monitor.tcache with
  | None -> 0
  | Some store ->
    let dir = store.Tcache.Store.dir in
    let t1 = t.vmm.Monitor.tr.params in
    let fingerprint =
      Baseline.Region.fingerprint ~mem_size:(Ppc.Mem.size t.vmm.Monitor.mem)
        t1
    in
    let infos =
      (* widest image first: overlapping cached regions (a run that
         upgraded leaves both) resolve to the larger one, the smaller
         fails [promote] with [`Already_promoted] and is skipped *)
      List.sort
        (fun (a : Tcache.Store.info) (b : Tcache.Store.info) ->
          compare (Array.length b.members) (Array.length a.members))
        (Tcache.Store.list_dir dir)
    in
    List.fold_left
      (fun n (i : Tcache.Store.info) ->
        if i.kind <> `Region || i.status <> `Ok then n
        else begin
          let members = i.members in
          let bytes =
            Array.to_list (Array.map (member_bytes t) members)
          in
          let key =
            Tcache.Store.region_key store ~fingerprint ~members ~bytes
          in
          (* key recomputed from *current* bytes: a stale image (any
             member byte changed since it was persisted) simply fails
             this match and stays on disk for eviction by deopt *)
          if key <> i.key then n
          else
            match Tcache.Store.probe_region store ~key ~fingerprint with
            | `Hit (xp, spec_inhibited, _) -> (
              let tr =
                Baseline.Region.translator ~t1 ~frontend:t.vmm.Monitor.fe
                  t.vmm.Monitor.mem ~members
              in
              Translate.install tr ~spec_inhibited xp;
              match
                Monitor.promote t.vmm ~members ~tr
                  ~insns:xp.insns_scheduled ~cached:true ()
              with
              | Ok r ->
                t.installed <- t.installed + 1;
                Hashtbl.replace t.promoted r.Monitor.r_id (set_key members);
                n + 1
              | Error _ -> n)
            | `Miss | `Corrupt _ | `Skipped _ -> n
        end)
      0 infos

(** Attach the driver: chains the monitor's event hook (heat + deopt
    accounting) and tick hook (periodic policy evaluation that survives
    event-silent steady states), then re-promotes cached regions.
    It must go on last, after the hooks it chains; {!Guard.Stack.attach}
    is the code that keeps that order. *)
let attach ?(cfg = default) vmm =
  let t = create ~cfg vmm in
  let prev_ev = vmm.Monitor.event_hook in
  vmm.Monitor.event_hook <-
    Some
      (fun ev ->
        (match prev_ev with Some h -> h ev | None -> ());
        on_event t ev);
  let prev_tick = vmm.Monitor.tick_hook in
  vmm.Monitor.tick_hook <-
    Some
      (fun ~pc ->
        (match prev_tick with Some h -> h ~pc | None -> ());
        on_tick t ~pc);
  ignore (warm_start t);
  t

(** One final drain + install pass (callers that end the run with a
    compile still in flight call this before reading stats). *)
let finish t = drain t
