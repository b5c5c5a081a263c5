(* The tier-2 promotion driver: policy, compilation and atomic swap-in
   of hot regions.

   Tier-1 is the page-at-a-time one-pass translator; tier-2 is the
   superblock scheduler ({!Baseline.Region}) applied to a hot page or
   inter-page SCC.  This module owns the loop between them:

     observe -> pick candidates -> compile -> verify -> [Monitor.promote]
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
   monitor is still dropping.  Installs and policy evaluations run at
   ticks ({!on_tick}).

   Regions compile on the execution thread, at the policy evaluation
   that picked them, as DAISY's VMM translates a missing page before
   execution continues: what a run promotes, and when, depends only on
   the code it executes.  The compile works on a snapshot (member
   bytes, entry points); its outcome waits on [pending] until the next
   committed boundary, which re-verifies the member bytes before the
   swap — a self-modifying store in between simply discards the image.
   The swap itself is [Monitor.promote]: table writes consulted only at
   the next cross-page dispatch, so execution never sees a partial
   install.

   Promoted images persist to the translation cache under a key built
   from the member-page *contents* ([Monitor.region_key]), through the
   monitor's one cache path, so warm starts re-promote without
   recompiling ({!warm_start}). *)

module Monitor = Vmm.Monitor
module Translate = Translator.Translate

type config = {
  min_heat : int;
      (** per-run execution weight (VLIWs + interpreted instructions)
          a single page must reach to be promoted on its own *)
  edge_threshold : int;
      (** per-run traversal count an exit edge must reach to
          participate in an SCC candidate *)
  max_pages : int;      (** largest member set worth one image *)
  check_every : int;    (** committed boundaries between policy
                            evaluations *)
  max_deopts : int;     (** strikes before a candidate is blacklisted *)
  submit : ((unit -> unit) -> unit) option;
      (** wraps each compile, which must run before [submit] returns
          (a timing span, say); [None] runs it bare.  A job [submit]
          drops leaves the compile [Failed], a strike against the
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
  strikes : (string, int) Hashtbl.t;       (** set key -> deopt strikes *)
  promoted : (int, string) Hashtbl.t;      (** region id -> set key *)
  mutable pending : (snapshot * outcome) list;
      (** compiles of the last evaluation, newest first, installed at
          the next committed boundary *)
  mutable installed : int;     (** images swapped in *)
  mutable rejected_stale : int;
      (** images discarded because member bytes changed under the
          compile, or the monitor refused the swap *)
}

let create ?(cfg = default) vmm =
  { cfg; vmm;
    profile = Profile.create ~page_size:vmm.Monitor.tr.params.page_size ();
    ticks = 0; strikes = Hashtbl.create 8; promoted = Hashtbl.create 8;
    pending = []; installed = 0; rejected_stale = 0 }

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

let member_bytes t base = Monitor.member_bytes t.vmm base

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
let required_heat t key = t.cfg.min_heat lsl strikes t key
let blacklisted t key = strikes t key >= t.cfg.max_deopts

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
  && heat >= required_heat t key
  && Array.length members <= t.cfg.max_pages
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

(* --- compile / cached probe ----------------------------------------- *)

(* Region images are keyed on their member pages' current contents:
   the image persisted for [members], installed into a fresh region
   translator, if the store has one.  The probe is the monitor's, so it
   counts, reports and quarantines like a page's.  [only] skips the
   probe unless the key is that one. *)
let cached_image ?only t ~members =
  match t.vmm.Monitor.tcache with
  | None -> None
  | Some store -> (
    let vmm = t.vmm in
    let t1 = vmm.Monitor.tr.params in
    let fingerprint =
      Baseline.Region.fingerprint ~mem_size:(Ppc.Mem.size vmm.Monitor.mem) t1
    in
    let key = Monitor.region_key vmm store ~fingerprint ~members in
    match only with
    | Some k when k <> key -> None
    | _ ->
      let tr =
        Baseline.Region.translator ~t1 ~frontend:vmm.Monitor.fe
          vmm.Monitor.mem ~members
      in
      Monitor.tcache_probe vmm store ~fingerprint ~members ~key
        ~page:members.(0) tr
      |> Option.map (fun xp -> (tr, xp)))

(* The persisted image of this exact member-content set, else a fresh
   compile.  Never raises: a failure is the outcome. *)
let compile t snap =
  let vmm = t.vmm in
  try
    match cached_image t ~members:snap.s_members with
    | Some (tr, xp) -> Cached (tr, xp)
    | None ->
      Compiled
        (Baseline.Region.compile ~t1:vmm.Monitor.tr.params
           ~frontend:vmm.Monitor.fe vmm.Monitor.mem ~members:snap.s_members
           ~entries:snap.s_entries)
  with exn -> Failed (Printexc.to_string exn)

let launch t members =
  (* Seeding is best-effort: the image lazily extends at runtime for
     any address the monitor dispatches into it, and converges to the
     same shape regardless of the seed, so tier-1's observed entries
     are simply a head start for the compile. *)
  let entries =
    Array.to_list members
    |> List.concat_map (observed_entries t)
    |> List.sort_uniq compare
  in
  if entries <> [] then begin
    let snap =
      { s_members = members;
        s_bytes = Array.to_list (Array.map (member_bytes t) members);
        s_entries = entries }
    in
    let outcome = ref (Failed "submit dropped the compile") in
    let job () = outcome := compile t snap in
    (match t.cfg.submit with Some submit -> submit job | None -> job ());
    t.pending <- (snap, !outcome) :: t.pending
  end

(* --- install -------------------------------------------------------- *)

let try_install t snap outcome =
  let key = set_key snap.s_members in
  match outcome with
  | Failed _ ->
    (* undecodable entry, injected translator fault, dropped submit…:
       strike the candidate so a deterministic failure can't relaunch
       forever *)
    strike t key
  | Compiled _ | Cached _ ->
    (* the image describes the snapshot's bytes: a store into a member
       page between the compile and this install voids it *)
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

(* Install the last evaluation's compiles, oldest first. *)
let drain t =
  let ready = List.rev t.pending in
  t.pending <- [];
  List.iter (fun (snap, outcome) -> try_install t snap outcome) ready

(* --- wiring ---------------------------------------------------------- *)

(* Events feed the profile and count deopts; they change no dispatch. *)
let on_event t (ev : Monitor.event) =
  Profile.feed t.profile ev;
  match ev with
  | Region_deopt { id; _ } -> (
    match Hashtbl.find_opt t.promoted id with
    | None -> ()
    | Some key ->
      Hashtbl.remove t.promoted id;
      strike t key)
  | _ -> ()

(* A committed boundary: install what the last evaluation compiled,
   then, every [check_every] boundaries, evaluate the policy.  The
   install comes first, so a pending compile is never launched twice. *)
let on_tick t ~pc:_ =
  if t.pending <> [] then drain t;
  t.ticks <- t.ticks + 1;
  if t.ticks >= t.cfg.check_every then begin
    t.ticks <- 0;
    (* credit the VLIWs the current page accumulated since its enter —
       a loop that never crosses pages is otherwise invisible *)
    Profile.flush t.profile ~vliws_total:t.vmm.Monitor.stats.vliws;
    List.iter (fun (members, _) -> launch t members) (candidates t)
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
    let infos =
      (* widest image first: overlapping cached regions (a run that
         upgraded leaves both) resolve to the larger one, the smaller
         fails [promote] with [`Already_promoted] and is skipped *)
      List.sort
        (fun (a : Tcache.Store.info) (b : Tcache.Store.info) ->
          compare (Array.length b.members) (Array.length a.members))
        (Tcache.Store.list_dir store.Tcache.Store.dir)
    in
    List.fold_left
      (fun n (i : Tcache.Store.info) ->
        if i.kind <> `Region || i.status <> `Ok then n
        else begin
          let members = i.members in
          (* key recomputed from *current* bytes: a stale image (any
             member byte changed since it was persisted) simply fails
             this match and stays on disk for eviction by deopt *)
          match cached_image ~only:i.key t ~members with
          | None -> n
          | Some (tr, xp) -> (
            match
              Monitor.promote t.vmm ~members ~tr ~insns:xp.insns_scheduled
                ~cached:true ()
            with
            | Ok r ->
              t.installed <- t.installed + 1;
              Hashtbl.replace t.promoted r.Monitor.r_id (set_key members);
              n + 1
            | Error _ -> n)
        end)
      0 infos

(** Attach the driver: subscribes to the monitor's events (heat +
    deopt accounting) and committed boundaries (installs, and the
    periodic policy evaluation that survives event-silent steady
    states), then re-promotes cached regions. *)
let attach ?(cfg = default) vmm =
  let t = create ~cfg vmm in
  Monitor.on_event vmm (on_event t);
  Monitor.on_tick vmm (on_tick t);
  ignore (warm_start t);
  t

(** Install what the last evaluation compiled (callers that read stats
    right after a run that ended before its next boundary). *)
let finish t = drain t
