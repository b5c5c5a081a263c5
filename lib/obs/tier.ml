(* The tier-2 promotion driver: policy, compilation and atomic swap-in
   of hot regions.

   Tier-1 is the page-at-a-time one-pass translator; tier-2 is the
   superblock scheduler ({!Baseline.Region}) applied to a hot page or
   inter-page SCC.  This module owns the loop between them:

     observe -> pick candidates -> compile -> [Monitor.promote]
     -> (on assumption failure the monitor deopts and we take a strike
     against the candidate)

   Heat comes from two sources feeding one {!Profile}: the monitor's
   event stream (page enters, exit edges, interpretation), and — because
   a steady-state loop that never leaves its page emits no events at
   all — a committed-boundary tick that samples [vmm.stats.vliws]
   directly.  Candidates are inter-page SCCs from {!Profile.regions}
   plus hot single pages; both kinds are worth the superblock
   scheduler's wider window even without cross-page speculation.

   The driver observes events and acts at committed boundaries.  An
   event only feeds the profile and counts a deopt against its
   candidate: the monitor emits events in the middle of its own
   transitions (a store's before the store lands, a strike's deopt
   before the strike is counted), where a swap would act on a page the
   monitor is still dropping.  Policy evaluations run at ticks
   ({!on_tick}).

   A region is compiled and swapped in at the boundary whose evaluation
   picked it, as DAISY's VMM translates a missing page and resumes in
   the fresh code: no guest instruction runs between the compile and
   the swap, so the image still describes its member bytes, and what a
   run promotes, and when, depends only on the code it executes.  The
   swap itself is [Monitor.promote]: table writes consulted at the next
   dispatch, so execution never sees a partial install.

   Promoted images persist to the translation cache under a key built
   from the member-page *contents* ([Monitor.region_key]), derived once
   before the promotion and kept in the region record: a store into a
   member page deopts the region before the store lands, so the key
   cannot go stale while the region is live.  Warm starts re-promote
   from the cache without recompiling ({!warm_start}). *)

module Monitor = Vmm.Monitor
module Translate = Translator.Translate

type config = {
  min_heat : int;
      (** per-run execution weight (VLIWs + interpreted instructions)
          a single page must reach to be promoted on its own *)
  edge_threshold : int;
      (** per-run traversal count an exit edge must reach to
          participate in an SCC candidate *)
  check_every : int;    (** committed boundaries between policy
                            evaluations *)
  submit : ((unit -> unit) -> unit) option;
      (** wraps each compile, which must run before [submit] returns
          (a timing span, say); [None] runs it bare.  A job [submit]
          drops leaves the compile failed, a strike against the
          candidate. *)
}

(* Thresholds are deliberately low: a compile costs a few ms of the
   execution thread per region, and a mid-run promotion only pays for
   the VLIWs executed *after* the swap, so waiting for a high bar
   forfeits most of the win.  Empirically on the seed workloads,
   promotion at 5k heat captures ~95% of the region's steady state; at
   100k it captures about half and the end-to-end ILP lands below
   tier-1. *)
let default =
  { min_heat = 5_000; edge_threshold = 250; check_every = 2_048;
    submit = None }

let max_pages = 8   (* largest member set worth one image *)
let max_deopts = 3  (* strikes before a candidate is blacklisted *)

(* A candidate's identity is its member set; strikes survive deopt and
   gate re-promotion (each strike doubles the heat bar). *)
let set_key members =
  String.concat "," (List.map string_of_int (Array.to_list members))

type t = {
  cfg : config;
  vmm : Monitor.t;
  profile : Profile.t;
  mutable ticks : int;
  strikes : (string, int) Hashtbl.t;       (** set key -> deopt strikes *)
  promoted : (int, string) Hashtbl.t;      (** region id -> set key *)
  mutable installed : int;     (** images swapped in *)
}

let create ?(cfg = default) vmm =
  { cfg; vmm;
    profile = Profile.create ~page_size:vmm.Monitor.tr.params.page_size ();
    ticks = 0; strikes = Hashtbl.create 8; promoted = Hashtbl.create 8;
    installed = 0 }

(* --- promotion verdicts (also used by `daisy profile --regions`) ---- *)

(** Would this profiler region be promoted under [cfg]?  Pure policy —
    no VMM state, so the CLI can explain decisions offline. *)
let verdict ~cfg (r : Profile.region) =
  let heat = r.region_vliws in
  let pages = List.length r.rpages in
  if pages > max_pages then
    Error (Printf.sprintf "spans %d pages > max %d" pages max_pages)
  else if heat < cfg.min_heat then
    Error (Printf.sprintf "heat %d < min %d" heat cfg.min_heat)
  else Ok heat

(* --- candidate selection ------------------------------------------- *)

(* Entry points tier-1 observed for [base]: the offsets registered in
   its xpage.  A member that was only ever interpreted contributes
   none; the region image lazily extends if control enters there. *)
let observed_entries t base =
  match Hashtbl.find_opt t.vmm.Monitor.tr.pages base with
  | None -> []
  | Some (xp : Translate.xpage) ->
    Hashtbl.fold (fun off _ acc -> (base + off) :: acc) xp.entries []

let strikes t key = Option.value ~default:0 (Hashtbl.find_opt t.strikes key)
let strike t key = Hashtbl.replace t.strikes key (1 + strikes t key)
let blacklist t key = Hashtbl.replace t.strikes key max_deopts
let required_heat t key = t.cfg.min_heat lsl strikes t key
let blacklisted t key = strikes t key >= max_deopts

(* Regions may grow: a candidate that covers an installed region's
   every member plus at least one more is an *upgrade* — the old image
   is deopted at install and the wider one takes over (the way a
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
  && heat >= required_heat t key
  && Array.length members <= max_pages
  && Array.length members > 0
  && upgrade_ok t members
  && Array.for_all (fun b -> Monitor.page_mode t.vmm b = `Translate) members

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

(* --- compile and install --------------------------------------------- *)

(* The region scheduler's cache namespace for this VMM. *)
let fingerprint t =
  Baseline.Region.fingerprint ~mem_size:(Ppc.Mem.size t.vmm.Monitor.mem)
    t.vmm.Monitor.tr.params

(* The cache key of the image over [members], from their current
   bytes; [None] without a cache. *)
let region_key t ~members =
  Option.map
    (fun store ->
      Monitor.region_key t.vmm store ~fingerprint:(fingerprint t) ~members)
    t.vmm.Monitor.tcache

(* The image the cache holds under [key], installed into a fresh region
   translator.  The probe is the monitor's, so it counts, reports and
   quarantines like a page's; [checked] is the entry as already read. *)
let cached_image ?checked t ~members key =
  let vmm = t.vmm in
  match (vmm.Monitor.tcache, key) with
  | Some store, Some key ->
    let tr =
      Baseline.Region.translator ~t1:vmm.Monitor.tr.params
        ~frontend:vmm.Monitor.fe vmm.Monitor.mem ~members
    in
    Monitor.tcache_probe vmm store ~fingerprint:(fingerprint t) ~members ?checked
      ~key ~page:members.(0) tr
    |> Option.map (fun (xp : Translate.xpage) -> (tr, xp))
  | _ -> None

(* Swap the image [tr] holds in over [members], under [key].  Only an
   upgrade installs: a live candidate passed that test when it was
   picked, but warm start's cached images may overlap.  The smaller
   regions the image absorbs retire first; a fresh image persists. *)
let install t ~members ?key ~tr ~insns ?seconds ~cached () =
  if upgrade_ok t members then begin
    List.iter
      (fun (r : Monitor.region) ->
        Monitor.deopt_region t.vmm r ~page:r.r_members.(0)
          ~reason:"superseded by a larger region")
      (Array.to_list members
      |> List.filter_map (Monitor.region_of t.vmm)
      |> List.sort_uniq (fun (a : Monitor.region) b -> compare a.r_id b.r_id));
    match
      Monitor.promote t.vmm ~members ?key ~tr ~insns ?seconds ~cached ()
    with
    | Error _ -> ()
    | Ok r ->
      t.installed <- t.installed + 1;
      Hashtbl.replace t.promoted r.Monitor.r_id (set_key members);
      if not cached then Monitor.tcache_persist_region t.vmm r
  end

(* Compile [members] and swap the image in, in one step: key it, take
   the cached image under that key, else compile.  Seeding is
   best-effort: the image lazily extends at runtime for any address the
   monitor dispatches into it, and converges to the same shape
   regardless of the seed, so tier-1's observed entries are simply a
   head start for the compile. *)
let launch t members =
  let entries =
    Array.to_list members
    |> List.concat_map (observed_entries t)
    |> List.sort_uniq compare
  in
  if entries <> [] then begin
    let vmm = t.vmm in
    let image = ref None in
    let job () =
      image :=
        try
          let key = region_key t ~members in
          match cached_image t ~members key with
          | Some (tr, xp) -> Some (key, tr, xp.insns_scheduled, 0., true)
          | None ->
            let c =
              Baseline.Region.compile ~t1:vmm.Monitor.tr.params
                ~frontend:vmm.Monitor.fe vmm.Monitor.mem ~members ~entries
            in
            Some (key, c.c_tr, c.c_insns, c.c_seconds, false)
        with _ -> None
    in
    (match t.cfg.submit with Some submit -> submit job | None -> job ());
    match !image with
    | None ->
      (* undecodable entry, injected translator fault, dropped submit…:
         strike the candidate so a deterministic failure can't relaunch
         forever *)
      strike t (set_key members)
    | Some (key, tr, insns, seconds, cached) ->
      install t ~members ?key ~tr ~insns ~seconds ~cached ()
  end

(* --- wiring ---------------------------------------------------------- *)

(* Events feed the profile and count deopts; they change no dispatch.
   A deopt for frequent aliasing blacklists its candidate at once:
   compilation is deterministic, so a recompile would be the same image
   and alias the same way. *)
let on_event t (ev : Monitor.event) =
  Profile.feed t.profile ev;
  match ev with
  | Region_deopt { id; reason; _ } -> (
    match Hashtbl.find_opt t.promoted id with
    | None -> ()
    | Some key ->
      Hashtbl.remove t.promoted id;
      if reason = Monitor.frequent_aliasing then blacklist t key
      else strike t key)
  | _ -> ()

(* A committed boundary: every [check_every] of them, evaluate the
   policy and compile and swap in each candidate it picks.  Candidates
   of one evaluation never overlap (SCCs are disjoint, and a single
   page is never inside a chosen SCC), so one install cannot void
   another's eligibility. *)
let on_tick t ~pc:_ =
  t.ticks <- t.ticks + 1;
  if t.ticks >= t.cfg.check_every then begin
    t.ticks <- 0;
    (* credit the VLIWs the current page accumulated since its enter —
       a loop that never crosses pages is otherwise invisible *)
    Profile.flush t.profile ~vliws_total:t.vmm.Monitor.stats.vliws;
    List.iter (fun (members, _) -> launch t members) (candidates t)
  end

(** Re-promote from the persistent cache: read the store's region
    entries, each once (page entries are never opened), and swap in,
    without compiling, each one whose member pages currently hold
    exactly the bytes it was compiled from.  Run once before execution
    starts (a warm fleet comes up already promoted). *)
let warm_start t =
  match t.vmm.Monitor.tcache with
  | None -> ()
  | Some store ->
    (* widest image first: overlapping cached regions (a run that
       upgraded leaves both) resolve to the larger one, and the
       smaller is no upgrade over it *)
    List.sort
      (fun (_, a, _) (_, b, _) -> compare (Array.length b) (Array.length a))
      (Tcache.Store.region_entries store)
    |> List.iter (fun (stored, members, checked) ->
           (* the key from *current* bytes: a stale image (any member
              byte changed since it was persisted) misses *)
           let key = region_key t ~members in
           if key = Some stored then
             match cached_image ~checked t ~members key with
             | None -> ()
             | Some (tr, xp) ->
               install t ~members ?key ~tr ~insns:xp.insns_scheduled
                 ~cached:true ())

(** Attach the driver: subscribes to the monitor's events (heat +
    deopt accounting) and committed boundaries (the periodic policy
    evaluation that survives event-silent steady states, and its
    swaps), then re-promotes cached regions. *)
let attach ?(cfg = default) vmm =
  let t = create ~cfg vmm in
  Monitor.on_event vmm (on_event t);
  Monitor.on_tick vmm (on_tick t);
  warm_start t;
  t
