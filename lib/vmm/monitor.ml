(* The Virtual Machine Monitor (Chapter 3).

   Owns the execution of translated code and every event the paper's
   VMM fields:

   - "translation missing" / "invalid entry": a branch lands on a base
     address with no valid translated entry point; the translator is
     invoked and execution resumes in the fresh VLIWs;
   - exceptions inside a VLIW (page faults, tagged-register consumption,
     deferred I/O-space loads): the VLIW is rolled back — it has
     whole-instruction semantics — and the VMM re-executes from the
     precise base address at VLIW entry *by interpretation*, which
     re-raises the fault exactly where the base architecture would and
     delivers it to the base OS through the architected vectors;
   - run-time aliasing between a speculative load that bypassed a store
     and that store: rollback plus an interpretation episode;
   - self-modifying code: stores into pages whose translation exists
     trip the per-page read-only bit, the translation is invalidated and
     execution continues from the next precise point;
   - rfi: per Section 3.4, the VMM interprets from the rfi target until
     the next call, cross-page branch or backward branch, then re-enters
     translated code at a (possibly fresh) valid entry point. *)

module T = Vliw.Tree
module Exec = Vliw.Exec
module C = Vliw.Compile
module Translate = Translator.Translate
module Params = Translator.Params
module Vec = Translator.Vec
open Ppc

type stats = {
  mutable vliws : int;            (** tree VLIWs executed *)
  mutable interp_insns : int;     (** base instructions run by interpretation *)
  mutable interp_episodes : int;
  mutable rollbacks : int;
  mutable aliases : int;          (** alias rollbacks (Table 5.7) *)
  mutable cross_direct : int;     (** cross-page branches (Table 5.6) *)
  mutable cross_lr : int;
  mutable cross_ctr : int;
  mutable cross_gpr : int;  (** register-indirect (S/390-style) *)
  mutable onpage_jumps : int;
  mutable loads : int;
  mutable stores : int;
  mutable vliws_with_load_miss : int;  (** set by the cache hooks *)
  mutable syscalls : int;
  mutable external_interrupts : int;
  mutable adaptive_retranslations : int;
  mutable code_invalidations : int;
  mutable stall_cycles : int;     (** finite-cache stalls *)
  mutable itlb_misses : int;
  mutable tcache_hits : int;      (** pages installed from the persistent cache *)
  mutable tcache_misses : int;
  mutable tcache_corrupt : int;   (** entries rejected (truncated, bad version…) *)
  mutable tcache_quarantined : int;
      (** corrupt entries set aside on disk so the next translation
          heals the cache instead of every session re-tripping on them *)
  mutable tcache_persists : int;  (** fresh translations written out *)
  mutable tcache_evicts : int;    (** entries dropped after invalidation *)
  mutable tcache_skipped : int;   (** unreadable / non-entry paths ignored *)
  mutable tcache_degraded : int;
      (** storage faults the cache absorbed by degrading to its
          in-memory overlay — the session kept serving, durability was
          lost (mirrors the store's own [degraded_count]) *)
  (* --- storage (lib/fsio) --- *)
  mutable storage_faults : int;
      (** typed Storage strikes: a durable store (checkpoints) hit a
          storage fault and the run continued degraded *)
  (* --- degradation ladder (failure containment) --- *)
  mutable translator_faults : int;  (** exceptions escaping translation *)
  mutable exec_faults : int;     (** malformed VLIWs caught at run time *)
  mutable quarantines : int;     (** pages demoted to interpretation *)
  mutable degrade_retries : int; (** re-translations after backoff expiry *)
  mutable interp_pinned : int;   (** pages permanently pinned to interp *)
  (* --- staged (closure-compiled) execution --- *)
  mutable compiled_pages : int;      (** pages staged into closures *)
  mutable compile_seconds : float;   (** wall time spent staging *)
  mutable direct_link_hits : int;    (** on-page jumps resolved via the
                                         memoized slot, no Hashtbl *)
  mutable spec_log_hwm : int;        (** speculative-load log high water *)
  (* --- supervision (lib/guard) --- *)
  mutable deadline_hits : int;       (** watchdog deadlines fired *)
  mutable shadow_checked : int;      (** committed packets shadow-verified *)
  mutable shadow_divergences : int;  (** shadow checks that found a divergence *)
  mutable checkpoints_written : int;
  mutable checkpoint_seconds : float;  (** wall time spent writing checkpoints *)
  (* --- tiered recompilation (tier-2 regions) --- *)
  mutable tier2_promotions : int;   (** regions swapped in *)
  mutable tier2_deopts : int;       (** regions demoted back to tier-1 *)
  mutable tier2_entries : int;      (** monitor entries into region code *)
  mutable tier2_vliws : int;        (** VLIWs executed under a region image *)
  mutable tier2_offregion_exits : int;
      (** transfers that left a region for tier-1 code (soft exits — the
          region image guards every escape, so these are not deopts) *)
  mutable tier2_compile_seconds : float;
      (** wall time staging region images (subset of compile_seconds) *)
}

let fresh_stats () =
  { vliws = 0; interp_insns = 0; interp_episodes = 0; rollbacks = 0;
    aliases = 0; cross_direct = 0; cross_lr = 0; cross_ctr = 0; cross_gpr = 0;
    onpage_jumps = 0; loads = 0; stores = 0; vliws_with_load_miss = 0;
    syscalls = 0; external_interrupts = 0; adaptive_retranslations = 0;
    code_invalidations = 0; stall_cycles = 0; itlb_misses = 0;
    tcache_hits = 0; tcache_misses = 0; tcache_corrupt = 0;
    tcache_quarantined = 0;
    tcache_persists = 0; tcache_evicts = 0; tcache_skipped = 0;
    tcache_degraded = 0; storage_faults = 0;
    translator_faults = 0; exec_faults = 0; quarantines = 0;
    degrade_retries = 0; interp_pinned = 0;
    compiled_pages = 0; compile_seconds = 0.; direct_link_hits = 0;
    spec_log_hwm = 0;
    deadline_hits = 0; shadow_checked = 0; shadow_divergences = 0;
    checkpoints_written = 0; checkpoint_seconds = 0.;
    tier2_promotions = 0; tier2_deopts = 0; tier2_entries = 0;
    tier2_vliws = 0; tier2_offregion_exits = 0; tier2_compile_seconds = 0. }

(* --- Instrumentation interface -------------------------------------

   The VMM reports its interesting moments through a single optional
   [event_hook]; the observability layer (lib/obs) subscribes here
   without the VMM depending on it.  Timestamps are VLIW cycles
   ([vliws + interp_insns] so far).  With no hook attached the cost of
   a site is one [None] test and no allocation. *)

type cross_kind =
  | Xdirect         (** direct cross-page branch *)
  | Xlr             (** register-indirect via the link register *)
  | Xctr            (** register-indirect via the count register *)
  | Xgpr            (** register-indirect via a GPR (S/390-style) *)
  | Xinvalid_entry  (** on-page jump to an offset with no valid entry *)

type rollback_kind =
  | RbAlias          (** speculative load bypassed a conflicting store *)
  | RbSelfmod        (** VLIW stored into the page it executes from *)
  | RbFault          (** non-speculative access fault *)
  | RbTag            (** tagged (deferred-exception) register consumed *)
  | RbTagged_target  (** indirect branch on a tagged value *)

(* How control left one page for another.  Exit edges are the region
   profiler's raw material: unlike {!cross_kind} (which describes the
   *mechanism* of a single transfer), an edge names both endpoint pages,
   so a stream of them assembles into a weighted cross-page CFG.
   Architectural transfers (sc / rfi / interrupt delivery) deliberately
   emit no edge — a region scheduler cannot promote across them. *)
type edge_kind =
  | Etaken   (** direct cross-page branch *)
  | Efall    (** execution fell off the page end into the next page *)
  | Elr      (** register-indirect via the link register *)
  | Ectr     (** register-indirect via the count register *)
  | Egpr     (** register-indirect via a GPR *)
  | Einterp  (** control crossed pages inside an interpretation episode *)

type event =
  | Translate_begin of { cycle : int; page : int; entry : int }
  | Translate_end of {
      cycle : int;
      page : int;
      entry : int;
      insns : int;   (** base instructions scheduled (incl. re-scheduling) *)
      vliws : int;   (** tree VLIWs created *)
      bytes : int;   (** translated code bytes laid out *)
      groups : int;  (** VLIW groups built *)
    }
  | Interp_begin of { cycle : int; pc : int }
  | Interp_end of { cycle : int; pc : int; insns : int; next : int }
  | Rolled_back of { cycle : int; pc : int; kind : rollback_kind }
  | Cross_page of { cycle : int; kind : cross_kind; target : int }
  | Exit_edge of { cycle : int; src : int; dst : int; kind : edge_kind }
      (** control moved from page [src] to a different page [dst] (both
          page bases) by a promotable transfer.  Emitted by the exit
          handlers, and by the interpreter when an episode ends on
          another page. *)
  | Page_enter of { cycle : int; page : int; vliws_so_far : int }
  | Retranslate_adaptive of { cycle : int; page : int }
  | Castout of { cycle : int; page : int }
  | Code_invalidated of { cycle : int; page : int }
  | Syscall_trap of { cycle : int; next : int }
  | External_interrupt of { cycle : int }
  | Tcache_hit of {
      cycle : int;
      page : int;
      vliws : int;    (** tree VLIWs installed without translating *)
      bytes : int;    (** translated code bytes in the entry *)
      seconds : float;  (** wall time to load and decode the entry *)
    }
  | Tcache_miss of { cycle : int; page : int }
  | Tcache_corrupt of { cycle : int; page : int; reason : string }
  | Tcache_quarantine of { cycle : int; page : int; reason : string }
      (** a corrupt entry was set aside on disk ([.dtc.bad]); the gate
          winner's retranslation will persist a fresh entry in its place *)
  | Tcache_persist of { cycle : int; page : int; bytes : int }
  | Tcache_evict of { cycle : int; page : int }
  | Tcache_skipped of { cycle : int; page : int; reason : string }
  | Translator_fault of { cycle : int; page : int; entry : int; reason : string }
  | Exec_fault of { cycle : int; page : int; pc : int; reason : string }
  | Quarantine of { cycle : int; page : int; failures : int; until : int }
      (** page demoted to interpretation until cycle [until] *)
  | Degrade_retry of { cycle : int; page : int }
      (** backoff expired; translation is being attempted again *)
  | Interp_pinned of { cycle : int; page : int }
      (** failure budget exhausted; page interprets forever *)
  | Vliw_compiled of { cycle : int; page : int; vliws : int; seconds : float }
      (** a page's trees were staged into closures *)
  | Deadline of {
      cycle : int;
      page : int;
      stage : deadline_stage;
      seconds : float;  (** elapsed when the deadline fired (0 for Dprogress) *)
    }  (** a watchdog budget was exceeded; the page takes a ladder strike *)
  | Shadow_divergence of { cycle : int; page : int; pc : int; reason : string }
      (** a committed packet's architected effects disagreed with the
          reference interpreter's re-execution *)
  | Checkpoint_written of {
      cycle : int;
      seq : int;      (** ordinal of the checkpoint file *)
      bytes : int;    (** file size *)
      pages : int;    (** dirty memory pages included *)
      seconds : float;
    }
  | Region_promoted of {
      cycle : int;
      id : int;       (** monitor-assigned region ordinal *)
      pages : int;    (** member tier-1 pages *)
      insns : int;    (** base instructions scheduled into the image *)
      vliws : int;    (** tree VLIWs in the region image *)
      seconds : float;  (** background compile wall time (0. when cached) *)
      cached : bool;  (** image came from the persistent cache *)
    }  (** a hot region's superblock image was swapped in atomically *)
  | Region_deopt of { cycle : int; id : int; page : int; reason : string }
      (** a region was demoted back to tier-1: member pages unmapped,
          staged image dropped, persistent entry evicted *)
  | Tcache_degraded of { cycle : int; page : int }
      (** a storage fault made the cache fall back to its in-memory
          overlay for this page — the session keeps serving, the entry
          lost durability *)
  | Storage_fault of {
      cycle : int;
      store : string;  (** "tcache", "checkpoint", "profile", "flight" *)
      op : string;     (** the IO operation that faulted *)
      reason : string;
    }  (** a typed Storage strike from a durable store; the run
          continues but the verdict degrades *)

and deadline_stage =
  | Dtranslate  (** per-page translation wall-clock budget *)
  | Dcompile    (** per-page staging (closure-compilation) budget *)
  | Dprogress   (** runaway-loop detector: no commit progress in K ticks *)

(* Per-page failure tracking for the degradation ladder.  A page climbs
   down the ladder one rung per failure: quarantine (translation
   dropped, interpretation-only until [backoff_until]), retry with the
   backoff doubling each time, and finally — after [max_page_failures]
   strikes — a permanent pin to interpretation.  The interpreter is the
   always-correct path, so every rung preserves architected state. *)
type health = {
  mutable failures : int;
  mutable backoff_until : int;   (** VMM cycle before which we interpret *)
  mutable pinned_interp : bool;  (** never try translation again *)
}

(* A promoted tier-2 region: a set of tier-1 pages re-translated as one
   translation unit through the superblock scheduler (wide window, high
   join limit, speculation across the former page boundaries).  The
   image lives in its own single-"page" translator whose [unit_filter]
   admits exactly the member pages, so every escape from the region is
   a guarded OFFPAGE exit back to the monitor — promotion never changes
   where control can go, only how fast it gets there. *)
type region = {
  r_id : int;                      (** monitor-assigned ordinal *)
  r_members : int array;           (** sorted member tier-1 page bases *)
  r_set : (int, unit) Hashtbl.t;   (** member bases, for O(1) tests *)
  r_tr : Translate.t;              (** owns the region's single xpage *)
  mutable r_staged : (Translate.xpage * C.page) option;
      (** closure-staged form; regions can't live in [t.compiled]
          because the region xpage's base (0) would collide with a
          genuine tier-1 page *)
  mutable r_aliases : int;
      (** alias rollbacks under this image; crossing the same threshold
          that triggers tier-1 adaptive retranslation deopts instead *)
}

type t = {
  tr : Translate.t;
  st : Vliw.Vstate.t;
  fe : Translator.Frontend.t;
  interp_step : unit -> unit;
  mem : Mem.t;
  stats : stats;
  tcache : Tcache.Store.t option;
      (** the persistent translation cache, when [run --tcache] gave us
          a directory *)
  cscratch : C.scratch;
      (** shared scratch buffers of staged execution (one VLIW executes
          at a time, so one set serves every staged page) *)
  compiled : (int, Translate.xpage * C.page) Hashtbl.t;
      (** staged pages by base; the source [xpage] is kept so staleness
          is detected by physical identity (invalidation replaces the
          object) plus tree count (extension grows it in place) *)
  (* speculative loads that bypassed stores, outstanding in the current
     group execution — a cleared-on-entry preallocated buffer, not a
     per-VLIW list (struct-of-arrays mirroring [Exec.access]) *)
  mutable spec_addr : int array;
  mutable spec_bytes : int array;
  mutable spec_seq : int array;
  mutable spec_n : int;
  mutable current_page : int;  (** base of the page we are executing *)
  mutable invalidated : bool;  (** current page's translation was dropped *)
  (* --- tiered recompilation --- *)
  regions : (int, region) Hashtbl.t;
      (** member tier-1 page base -> its promoted region.  [goto_base]
          consults this first, so installing/removing mappings on the
          main thread IS the atomic swap: in-flight VLIWs finish under
          whatever image dispatched them, and the very next transfer
          lands on the other tier. *)
  mutable region_seq : int;
  mutable active_region : region option;
      (** region currently executing, if any; keyed by physical identity *)
  mutable promote_pending : bool;
      (** a region was just installed while execution is direct-linked
          inside a tier-1 image, which never passes [goto_base]: the
          next VLIW boundary re-dispatches explicitly if its page now
          belongs to a region.  One-shot. *)
  mutable pending_selfmod : bool;
      (** the VLIW being checked stores into the page it executes from *)
  mutable fetch_hook : (addr:int -> size:int -> unit) option;
      (** I-cache model: called once per VLIW executed *)
  mutable access_hook : (Exec.access -> unit) option;
      (** D-cache model: called per memory access *)
  mutable interp_fetch_hook : (int -> unit) option;
      (** I-side hook for interpreted instructions *)
  mutable timer_interval : int option;
      (** deliver an external interrupt every N VLIWs (when MSR.EE) *)
  mutable timer_count : int;
  alias_tally : (int, int) Hashtbl.t;  (** alias rollbacks per page *)
  itlb : Memsys.Tlb.t;
      (** backs GO_ACROSS_PAGE (Section 3.4): maps base page numbers to
          translated frames; misses charge the micro-interrupt handler *)
  mutable itlb_miss_cost : int;
  mutable code_budget : int option;
      (** bound on live translated-code bytes; exceeding it casts out
          the least-recently-entered page translations (Section 3.1) *)
  mutable pinned : (int, unit) Hashtbl.t;
      (** pages never cast out (interrupt handlers etc., Section 3.7) *)
  lru : (int, int) Hashtbl.t;  (** page base -> last-entered stamp *)
  mutable lru_tick : int;
  mutable castouts : int;
  max_episode : int;
  mutable event_hook : (event -> unit) option;
      (** instrumentation sink (lib/obs subscribes here) *)
  mutable resume_pc : int;
      (** precise base address to resume from after [run] returns [None]
          on exhausted fuel — the debugger's single-stepping hook *)
  (* --- degradation ladder --- *)
  page_health : (int, health) Hashtbl.t;
  mutable max_page_failures : int;  (** strikes before the permanent pin *)
  mutable backoff_base : int;       (** first quarantine length, in cycles *)
  (* --- fault-injection hooks (lib/fault attaches here; every one
     defaults to [None] and costs a single test when unused) --- *)
  mutable translate_hook : (page:int -> entry:int -> unit) option;
      (** called before fresh translation work; may raise to simulate a
          translator crash or timeout *)
  mutable install_hook : (Translate.xpage -> unit) option;
      (** called after a page is translated, extended or installed from
          the persistent cache (digest recording, bit-flip injection) *)
  mutable page_check : (Translate.xpage -> string option) option;
      (** integrity check on page entry; [Some reason] quarantines *)
  mutable boundary_hook : (unit -> bool) option;
      (** polled at VLIW boundaries while MSR.EE is set; [true] delivers
          a (spurious) external interrupt there *)
  mutable prefault_hook : (unit -> bool) option;
      (** polled before each VLIW; [true] forces a fault-style rollback
          and an interpretation episode (page-fault storms) *)
  mutable tcache_persist_hook : (string -> unit) option;
      (** called with the entry's path after each persist (poisoning) *)
  (* --- shared-cache service (lib/serve attaches here) --- *)
  mutable translate_gate :
    (page:int -> key:string -> [ `Proceed | `Waited ]) option;
      (** consulted after a store miss, before fresh translation of a
          page with no in-memory translation.  [`Proceed]: this VMM won
          the content key and must translate (and later release);
          [`Waited]: another session translated the same key while we
          blocked — re-probe the store instead of duplicating the work *)
  mutable translate_release : (page:int -> key:string -> ok:bool -> unit) option;
      (** the gate owner is done with [key]; [ok] tells whether a
          translation was installed.  Called on every exit path out of
          the translate attempt — a gate owner that failed must still
          wake its waiters or they block forever *)
  mutable tcache_touch : (key:string -> unit) option;
      (** a store entry under [key] was hit or persisted by this VMM —
          the serve layer pins such keys against budget eviction while
          the session lives *)
  (* --- supervision (lib/guard attaches here) --- *)
  mutable translate_budget : float option;
      (** wall-clock allowance (seconds) per fresh page translation;
          overruns take a ladder strike instead of being absorbed *)
  mutable compile_budget : float option;
      (** wall-clock allowance per page staging *)
  mutable progress_limit : int option;
      (** runaway-loop detector: fire after this many consecutive VLIW
          boundaries at the same precise pc with no interpretation in
          between.  [None] (the default) disables the detector — a
          legitimate single-VLIW counted loop revisits its entry pc
          once per iteration, so the limit must exceed any iteration
          count the workload can legally run. *)
  mutable progress_pc : int;      (** detector state: last boundary pc *)
  mutable progress_ticks : int;   (** consecutive boundaries at that pc *)
  mutable tick_hook : (pc:int -> unit) option;
      (** called at every committed boundary (VLIW entry, post-episode)
          with the precise base address; the guard's checkpoint cadence
          and termination poll live here.  May raise to unwind the run. *)
  mutable shadow_arm : (pc:int -> unit) option;
      (** called immediately before a VLIW executes, with its precise
          entry pc; the shadow verifier snapshots state here when its
          sampler selects the packet *)
  mutable shadow_abort : (unit -> unit) option;
      (** the armed packet did not commit (rollback or execution
          fault); the shadow snapshot is discarded *)
  mutable shadow_commit : (next:int -> int option) option;
      (** the armed packet committed and control is about to move to
          base address [next].  Returns [None] to continue normally, or
          [Some pc] after a detected divergence: state has been repaired
          to the pre-packet snapshot and the VMM must re-execute from
          [pc] (the page has been given a ladder strike, so it will be
          interpreted) *)
}

(** The VMM's clock: VLIW cycles plus interpreted instructions. *)
let now t = t.stats.vliws + t.stats.interp_insns

(* [emit] takes a thunk so the disabled path allocates nothing. *)
let emit t ev = match t.event_hook with Some h -> h (ev ()) | None -> ()

(* --- Persistent translation cache (lib/tcache) ---------------------

   The content-addressed key is computed from the page's *current*
   bytes, so every call site must run before those bytes change; the
   self-modifying-code hook qualifies because [Mem.t.on_store] fires
   before the store lands. *)

let tcache_key t store base =
  let len = min t.tr.params.page_size (Mem.size t.mem - base) in
  Tcache.Store.key store ~base (Mem.read_string t.mem base len)

(* The store, for a page that has bytes to key: a page past the end of
   memory bypasses the cache (all it translates to is the fetch trap). *)
let tcache_for t base = if base < Mem.size t.mem then t.tcache else None

(* The store degrades to its in-memory overlay silently (it must never
   raise into a guest run); the monitor mirrors the store's degraded
   count into the stats after every cache operation so each absorbed
   storage fault surfaces exactly once as a [Tcache_degraded] event. *)
let tcache_sync_degraded t store base =
  let d = Tcache.Store.degraded_count store in
  while t.stats.tcache_degraded < d do
    t.stats.tcache_degraded <- t.stats.tcache_degraded + 1;
    emit t (fun () -> Tcache_degraded { cycle = now t; page = base })
  done

(* Probe the store for [addr]'s page and install the decoded
   translation; any anomaly counts as corrupt and falls through to a
   normal translate.  A corrupt entry is also *quarantined* — set aside
   on disk — so under a shared cache one poisoned file costs one
   retranslation by the gate winner instead of a corrupt-parse per
   session per probe, and the winner's persist heals the key. *)
let tcache_probe t addr =
  let base = Translate.page_base t.tr addr in
  match tcache_for t base with
  | None -> ()
  | Some store ->
    let key = tcache_key t store base in
    let t0 = Sys.time () in
    let corrupt reason =
      t.stats.tcache_corrupt <- t.stats.tcache_corrupt + 1;
      emit t (fun () -> Tcache_corrupt { cycle = now t; page = base; reason });
      if Tcache.Store.quarantine store ~key then begin
        t.stats.tcache_quarantined <- t.stats.tcache_quarantined + 1;
        emit t (fun () ->
            Tcache_quarantine { cycle = now t; page = base; reason })
      end
    in
    (match Tcache.Store.probe store ~key with
    | `Hit (page, spec_inhibited) when page.base = base ->
      let seconds = Sys.time () -. t0 in
      Translate.install t.tr ~spec_inhibited page;
      t.stats.tcache_hits <- t.stats.tcache_hits + 1;
      emit t (fun () ->
          Tcache_hit
            { cycle = now t; page = base; vliws = Vec.length page.vliws;
              bytes = page.code_bytes; seconds });
      (match t.tcache_touch with Some f -> f ~key | None -> ());
      (match t.install_hook with Some f -> f page | None -> ())
    | `Hit _ -> corrupt "page base mismatch"
    | `Miss ->
      t.stats.tcache_misses <- t.stats.tcache_misses + 1;
      emit t (fun () -> Tcache_miss { cycle = now t; page = base })
    | `Corrupt reason -> corrupt reason
    | `Skipped reason ->
      t.stats.tcache_skipped <- t.stats.tcache_skipped + 1;
      emit t (fun () -> Tcache_skipped { cycle = now t; page = base; reason }));
    tcache_sync_degraded t store base

(* Write [page]'s translation out (also after an extension of an
   already-persisted page: same key, superset entry, plain overwrite). *)
let tcache_persist t (page : Translate.xpage) =
  match tcache_for t page.base with
  | None -> ()
  | Some store ->
    let key = tcache_key t store page.base in
    let spec_inhibited = Translate.load_spec_inhibited t.tr page.base in
    (match Tcache.Store.persist store ~key page ~spec_inhibited with
    | bytes ->
      t.stats.tcache_persists <- t.stats.tcache_persists + 1;
      emit t (fun () ->
          Tcache_persist { cycle = now t; page = page.base; bytes });
      (match t.tcache_touch with Some f -> f ~key | None -> ());
      (match t.tcache_persist_hook with
      | Some f -> f (Tcache.Store.path_of store key)
      | None -> ())
    | exception Sys_error _ -> () (* unwritable dir: cache is best-effort *));
    tcache_sync_degraded t store page.base

(* Drop the entry for a page whose translation just became invalid
   (self-modifying code, adaptive retranslation).  Cast-outs do NOT
   evict: a translation dropped only for code-cache capacity is still
   correct, and the refill becomes a cache hit. *)
let tcache_evict t base =
  match tcache_for t base with
  | None -> ()
  | Some store ->
    let key = tcache_key t store base in
    if Tcache.Store.evict store ~key then begin
      t.stats.tcache_evicts <- t.stats.tcache_evicts + 1;
      emit t (fun () -> Tcache_evict { cycle = now t; page = base })
    end;
    tcache_sync_degraded t store base

(* Drop the staged form of a page whose translation just became invalid
   (self-modifying code, adaptive retranslation, quarantine, cast-out).
   The identity check in [compiled_for] would catch the staleness
   anyway, but dropping eagerly keeps the cache from pinning dead
   closure graphs. *)
let drop_compiled t base = Hashtbl.remove t.compiled base

(* --- Tier-2 regions ------------------------------------------------

   Promotion maps every member tier-1 page base to a [region] record;
   demotion removes the mappings and drops the staged image.  Both are
   plain main-thread Hashtbl updates consulted only at [goto_base], so
   the swap in either direction is atomic with respect to execution:
   no VLIW ever observes a half-installed region. *)

let member_bytes t base =
  let len = min t.tr.params.page_size (Mem.size t.mem - base) in
  Mem.read_string t.mem base len

(* The persistent key of a region image: the *set* of member-page
   contents (plus the member bases and the region scheduler's
   fingerprint), so any byte change in any member page — or a different
   grouping — misses and falls back to a fresh background compile. *)
let tcache_region_key t store (r : region) =
  Tcache.Store.region_key store
    ~fingerprint:(Params.fingerprint r.r_tr.params)
    ~members:r.r_members
    ~bytes:(Array.to_list (Array.map (member_bytes t) r.r_members))

let tcache_evict_region t (r : region) =
  match t.tcache with
  | None -> ()
  | Some store ->
    let key = tcache_region_key t store r in
    if Tcache.Store.evict store ~key then begin
      t.stats.tcache_evicts <- t.stats.tcache_evicts + 1;
      emit t (fun () -> Tcache_evict { cycle = now t; page = r.r_members.(0) })
    end;
    tcache_sync_degraded t store r.r_members.(0)

(** Demote [r] back to tier-1: unmap every member (only where the
    mapping still points at [r]), drop the staged image, and evict the
    persistent region entry.  Callers on the self-modifying-code path
    run before the member bytes change, so the content key still
    matches the stale entry being evicted. *)
let deopt_region t (r : region) ~page ~reason =
  Array.iter
    (fun b ->
      match Hashtbl.find_opt t.regions b with
      | Some r' when r' == r -> Hashtbl.remove t.regions b
      | _ -> ())
    r.r_members;
  r.r_staged <- None;
  (match t.active_region with
  | Some r' when r' == r -> t.active_region <- None
  | _ -> ());
  tcache_evict_region t r;
  t.stats.tier2_deopts <- t.stats.tier2_deopts + 1;
  emit t (fun () -> Region_deopt { cycle = now t; id = r.r_id; page; reason })

(* --- Speculative-load log ------------------------------------------

   Outstanding speculative loads of the current group execution, kept
   in a preallocated buffer that is cleared by resetting [spec_n] —
   the per-VLIW [List.filter … @ log] churn this replaces allocated on
   every VLIW with passed loads. *)

let spec_clear t = t.spec_n <- 0

let spec_push t addr bytes seq =
  let n = t.spec_n in
  if n = Array.length t.spec_addr then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.spec_addr <- grow t.spec_addr;
    t.spec_bytes <- grow t.spec_bytes;
    t.spec_seq <- grow t.spec_seq
  end;
  t.spec_addr.(n) <- addr;
  t.spec_bytes.(n) <- bytes;
  t.spec_seq.(n) <- seq;
  t.spec_n <- n + 1;
  if t.spec_n > t.stats.spec_log_hwm then t.stats.spec_log_hwm <- t.spec_n

(* Does any outstanding speculative load later in program order than
   [sseq] overlap the store [saddr]/[sbytes]? *)
let spec_conflicts t saddr sbytes sseq =
  let rec go i =
    i < t.spec_n
    && ((t.spec_seq.(i) > sseq
        && t.spec_addr.(i) < saddr + sbytes
        && saddr < t.spec_addr.(i) + t.spec_bytes.(i))
       || go (i + 1))
  in
  go 0

let create ?(params = Params.default) ?(frontend = Translator.Frontend.ppc)
    ?tcache_dir ?tcache_io mem =
  let m = Machine.create () in
  let st = Vliw.Vstate.create m in
  let tr = Translate.create ~frontend params mem in
  let tcache =
    Option.map
      (fun dir ->
        Tcache.Store.open_store ?io:tcache_io ~dir ~frontend:frontend.name
          ~fingerprint:(Params.fingerprint params) ())
      tcache_dir
  in
  let t =
    { tr; st; fe = frontend; interp_step = frontend.make_step m mem; mem;
      stats = fresh_stats (); tcache;
      cscratch = C.create_scratch (); compiled = Hashtbl.create 32;
      spec_addr = Array.make 32 0; spec_bytes = Array.make 32 0;
      spec_seq = Array.make 32 0; spec_n = 0;
      current_page = -1; invalidated = false;
      regions = Hashtbl.create 4; region_seq = 0; active_region = None;
      promote_pending = false;
      pending_selfmod = false; fetch_hook = None; access_hook = None;
      interp_fetch_hook = None; timer_interval = None; timer_count = 0;
      alias_tally = Hashtbl.create 8;
      itlb = Memsys.Tlb.create ~entries:64 ~assoc:4 (); itlb_miss_cost = 10;
      code_budget = None; pinned = Hashtbl.create 4; lru = Hashtbl.create 32;
      lru_tick = 0; castouts = 0; max_episode = 64; event_hook = None;
      resume_pc = -1;
      page_health = Hashtbl.create 8; max_page_failures = 5;
      backoff_base = 256;
      translate_hook = None; install_hook = None; page_check = None;
      boundary_hook = None; prefault_hook = None;
      tcache_persist_hook = None;
      translate_gate = None; translate_release = None; tcache_touch = None;
      translate_budget = None; compile_budget = None; progress_limit = None;
      progress_pc = -1; progress_ticks = 0; tick_hook = None;
      shadow_arm = None; shadow_abort = None; shadow_commit = None }
  in
  (* feed run-time register values to the translator's guarded inlining
     of indirect branches (Chapter 6) *)
  tr.guard_hint <-
    Some
      (fun r ->
        if r < 32 then m.gpr.(r)
        else if r = Translator.Res.lr then m.lr
        else m.ctr);
  (* the per-unit read-only bit: stores into translated pages invalidate *)
  if params.watch_code then
    mem.on_store <-
      Some
        (fun addr _n ->
          (* a store into any member page of a promoted region fails the
             region's whole-unit assumption: deopt before the bytes
             change (the stale persistent entry is evicted under its
             still-matching content key) *)
          (match Hashtbl.find_opt t.regions (Translate.page_base tr addr) with
          | Some r ->
            deopt_region t r ~page:(Translate.page_base tr addr)
              ~reason:"self-modifying code in member page"
          | None -> ());
          if Translate.translated tr addr then (
            (* the hook fires before the bytes change, so the page still
               digests to the key the stale entry was stored under *)
            tcache_evict t (Translate.page_base tr addr);
            Translate.invalidate tr addr;
            drop_compiled t (Translate.page_base tr addr);
            t.stats.code_invalidations <- t.stats.code_invalidations + 1;
            emit t (fun () ->
                Code_invalidated
                  { cycle = now t; page = Translate.page_base tr addr });
            if Translate.page_base tr addr = t.current_page then
              t.invalidated <- true));
  t

(* Does a store at [addr] hit code of the unit we are executing?  Under
   a promoted region any member page counts: instructions later in the
   VLIW may have been speculated from any of them. *)
let store_hits_code t addr =
  let base = addr land lnot (t.tr.params.page_size - 1) in
  match t.active_region with
  | Some r -> Hashtbl.mem r.r_set base
  | None -> base = t.current_page

(* The runtime alias check of Section 2.1 / Table 5.7: a store conflicts
   with a speculative load that is later in program order but already
   executed.  The accesses are read by index from the staged VLIW's
   scratch buffers; no lists are built. *)
let alias_check t (s : C.scratch) =
  let n = s.a_n in
  (* a store into the very page we are executing must roll the VLIW
     back: instructions after the store may have been translated from
     the code it just overwrote (Section 3.2) *)
  let selfmod =
    t.tr.params.watch_code
    && begin
         let found = ref false in
         for i = 0 to n - 1 do
           if s.a_store.(i) && store_hits_code t s.a_addr.(i) then
             found := true
         done;
         !found
       end
  in
  if selfmod then (
    t.pending_selfmod <- true;
    false)
  else begin
    let ok = ref true in
    for si = 0 to n - 1 do
      if !ok && s.a_store.(si) then begin
        let sa = s.a_addr.(si) and sb = s.a_bytes.(si) and ss = s.a_seq.(si) in
        for li = 0 to n - 1 do
          if
            !ok
            && (not s.a_store.(li))
            && s.a_passed.(li)
            && s.a_seq.(li) > ss
            && s.a_addr.(li) < sa + sb
            && sa < s.a_addr.(li) + s.a_bytes.(li)
          then ok := false
        done;
        if !ok && spec_conflicts t sa sb ss then ok := false
      end
    done;
    !ok
  end

(* Interpret from [start] until the next call, cross-page branch,
   backward branch, sc/rfi, or the episode cap — then return the next
   base address to re-enter translated code at (Section 3.4). *)
let interpret_episode t start =
  let m = t.st.m in
  Vliw.Vstate.clear_nonarch t.st;
  m.pc <- start;
  t.stats.interp_episodes <- t.stats.interp_episodes + 1;
  emit t (fun () -> Interp_begin { cycle = now t; pc = start });
  let insns0 = t.stats.interp_insns in
  let page_mask = lnot (t.tr.params.page_size - 1) in
  let ended_on_stop = ref false in
  let rec go n =
    let pc = m.pc in
    let stop_kind = t.fe.is_episode_stop t.mem pc in
    (match t.interp_fetch_hook with Some f -> f pc | None -> ());
    t.interp_step ();
    t.stats.interp_insns <- t.stats.interp_insns + 1;
    let crossed = m.pc land page_mask <> pc land page_mask in
    let backward = m.pc < pc in
    if n > 1 && not (stop_kind || crossed || backward) then go (n - 1)
    else ended_on_stop := stop_kind
  in
  go t.max_episode;
  emit t (fun () ->
      Interp_end
        { cycle = now t; pc = start; insns = t.stats.interp_insns - insns0;
          next = m.pc });
  (* An episode that walked onto another page is an exit edge too —
     unless it ended on sc/rfi, whose page change is the architectural
     trap transfer, not promotable control flow. *)
  (match t.event_hook with
  | None -> ()
  | Some _ ->
    let src = start land page_mask and dst = m.pc land page_mask in
    if (not !ended_on_stop) && src <> dst then
      emit t (fun () ->
          Exit_edge { cycle = now t; src; dst; kind = Einterp }));
  m.pc

exception Out_of_fuel

exception Deliver of int
(** internal: unwind to the driver and resume at an interrupt vector *)

exception Translate_deadline of float
(** internal: a fresh translation finished but blew its wall-clock
    budget; carries the elapsed seconds *)

(* --- Degradation ladder --------------------------------------------

   Any failure during translation or translated execution must not take
   the run down: the interpreter is the always-correct path, so the
   monitor demotes the failing page to it.  One failure = one rung:

     1. quarantine — the translation is dropped and the page executes
        by interpretation episodes for an exponentially-growing number
        of cycles;
     2. retry — once the backoff expires, translation is attempted
        again (a transient fault heals here);
     3. pin — after [max_page_failures] strikes the page interprets for
        the rest of the run.

   Architected state is preserved at every rung: translator faults
   happen before any translated code runs, and execution faults
   ({!Vliw.Exec.Error}) are raised before any VLIW write is applied. *)

let health t base =
  match Hashtbl.find_opt t.page_health base with
  | Some h -> h
  | None ->
    let h = { failures = 0; backoff_until = 0; pinned_interp = false } in
    Hashtbl.add t.page_health base h;
    h

(** One more strike against [base]: drop whatever translation exists
    and either extend the quarantine or pin the page for good. *)
let record_failure t base =
  (* a ladder strike against a member page voids its region's
     whole-unit assumption too: shadow divergence, execution faults,
     watchdog deadlines and quarantines all funnel through here, so the
     deopt triggers are exactly the tier-1 failure triggers *)
  (match Hashtbl.find_opt t.regions base with
  | Some r -> deopt_region t r ~page:base ~reason:"ladder strike"
  | None -> ());
  Translate.invalidate t.tr base;
  drop_compiled t base;
  let h = health t base in
  h.failures <- h.failures + 1;
  t.stats.quarantines <- t.stats.quarantines + 1;
  if h.failures >= t.max_page_failures then begin
    h.backoff_until <- max_int;
    if not h.pinned_interp then begin
      h.pinned_interp <- true;
      t.stats.interp_pinned <- t.stats.interp_pinned + 1;
      emit t (fun () -> Interp_pinned { cycle = now t; page = base })
    end
  end
  else h.backoff_until <- now t + (t.backoff_base lsl (h.failures - 1));
  emit t (fun () ->
      Quarantine
        { cycle = now t; page = base; failures = h.failures;
          until = h.backoff_until })

(* One committed VLIW boundary: feed the runaway-loop detector and the
   supervision tick hook.  The detector counts consecutive boundaries
   that re-enter the *same* precise pc without any interpretation in
   between; [progress_limit] strikes in a row means translated code is
   spinning without committing past this point (e.g. a miscompiled
   backward branch), so the page is quarantined and the caller must
   recover by interpretation — the always-correct path — instead of
   dispatching the same loop again.  Returns [true] when it fired. *)
let boundary_tick t ~pc =
  let fired =
    match t.progress_limit with
    | None -> false
    | Some k ->
      if pc = t.progress_pc then begin
        t.progress_ticks <- t.progress_ticks + 1;
        if t.progress_ticks >= k then begin
          t.progress_ticks <- 0;
          t.progress_pc <- -1;
          t.stats.deadline_hits <- t.stats.deadline_hits + 1;
          emit t (fun () ->
              Deadline
                { cycle = now t; page = t.current_page; stage = Dprogress;
                  seconds = 0. });
          record_failure t t.current_page;
          true
        end
        else false
      end
      else begin
        t.progress_pc <- pc;
        t.progress_ticks <- 0;
        false
      end
  in
  (match t.tick_hook with Some f -> f ~pc | None -> ());
  fired

(* Stage (or re-stage) the closure-compiled form of [xp], lazily on
   first dispatch.  A tier-1 page's staged form is kept in [t.compiled]
   by base; a region image's in its record, since the region is
   [active_region] while its image dispatches.  Staleness is physical
   identity plus tree count: invalidation replaces the xpage object,
   and an in-place extension grows its [vliws] — either way the staged
   form is rebuilt here.  The hit path runs on every cross-page
   dispatch, so it allocates nothing. *)
let compiled_for t (xp : Translate.xpage) : C.page =
  match
    match t.active_region with
    | None -> Hashtbl.find t.compiled xp.base
    | Some { r_staged = Some staged; _ } -> staged
    | Some { r_staged = None; _ } -> raise_notrace Not_found
  with
  | src, cp when src == xp && C.n_staged cp = Vec.length xp.vliws -> cp
  | _ | exception Not_found ->
    let t0 = Sys.time () in
    let trees = Array.init (Vec.length xp.vliws) (Vec.get xp.vliws) in
    let cp =
      C.stage ?budget:t.compile_budget ~st:t.st ~mem:t.mem ~scratch:t.cscratch
        trees
    in
    let seconds = Sys.time () -. t0 in
    t.stats.compiled_pages <- t.stats.compiled_pages + 1;
    t.stats.compile_seconds <- t.stats.compile_seconds +. seconds;
    (match t.active_region with
    | None -> Hashtbl.replace t.compiled xp.base (xp, cp)
    | Some r ->
      t.stats.tier2_compile_seconds <-
        t.stats.tier2_compile_seconds +. seconds;
      r.r_staged <- Some (xp, cp));
    emit t (fun () ->
        Vliw_compiled
          { cycle = now t; page = t.current_page; vliws = Array.length trees;
            seconds });
    cp

(** Which rung is [base] on right now? *)
let page_mode t base =
  match Hashtbl.find_opt t.page_health base with
  | None -> `Translate
  | Some h ->
    if h.pinned_interp || now t < h.backoff_until then `Interp
    else if h.failures > 0 then `Retry
    else `Translate

(** Swap a compiled region image in.  [tr] is the region's dedicated
    translator (single whole-memory "page", [unit_filter] = the member
    set) holding the already-translated image; [members] are the sorted
    tier-1 page bases it covers.  Installation is a set of main-thread
    Hashtbl writes consulted only at the next [goto_base], so in-flight
    execution never observes a partial swap.  Refused when any member is
    already promoted or sits on a ladder rung — the interpreter owns
    unhealthy pages. *)
let promote t ~members ~(tr : Translate.t) ?(insns = 0) ?(seconds = 0.)
    ?(cached = false) () =
  let healthy b =
    match Hashtbl.find_opt t.page_health b with
    | Some h -> h.failures = 0 && not h.pinned_interp
    | None -> true
  in
  if Array.length members = 0 then Error `Empty
  else if Array.exists (fun b -> Hashtbl.mem t.regions b) members then
    Error `Already_promoted
  else if not (Array.for_all healthy members) then Error `Unhealthy
  else begin
    t.region_seq <- t.region_seq + 1;
    let set = Hashtbl.create (Array.length members) in
    Array.iter (fun b -> Hashtbl.replace set b ()) members;
    let r =
      { r_id = t.region_seq; r_members = members; r_set = set; r_tr = tr;
        r_staged = None; r_aliases = 0 }
    in
    Array.iter (fun b -> Hashtbl.replace t.regions b r) members;
    t.promote_pending <- true;
    t.stats.tier2_promotions <- t.stats.tier2_promotions + 1;
    t.stats.tier2_compile_seconds <-
      t.stats.tier2_compile_seconds +. seconds;
    let vliws =
      Hashtbl.fold
        (fun _ (p : Translate.xpage) acc -> acc + Vec.length p.vliws)
        tr.pages 0
    in
    emit t (fun () ->
        Region_promoted
          { cycle = now t; id = r.r_id; pages = Array.length members; insns;
            vliws; seconds; cached });
    Ok r
  end

(** The region (if any) currently covering tier-1 page [base]. *)
let region_of t base = Hashtbl.find_opt t.regions base

(* One-shot consumption of [promote_pending]: true iff the boundary at
   [pc] should abandon its direct-linked tier-1 chain and re-dispatch
   (the page under [pc] now belongs to a region).  Consumed either way
   — if the install raced execution into some non-member page, the
   member pages will be re-entered through [goto_base] regardless. *)
let take_redispatch t ~pc =
  t.promote_pending
  && begin
       t.promote_pending <- false;
       t.active_region = None
       && Hashtbl.mem t.regions (pc land lnot (t.tr.params.page_size - 1))
     end

(** Every live region, deduplicated, in promotion order. *)
let live_regions t =
  let seen = Hashtbl.create 8 in
  Hashtbl.fold
    (fun _ r acc ->
      if Hashtbl.mem seen r.r_id then acc
      else begin
        Hashtbl.replace seen r.r_id ();
        r :: acc
      end)
    t.regions []
  |> List.sort (fun a b -> compare a.r_id b.r_id)

(** Persist [r]'s image so warm starts come up already promoted. *)
let tcache_persist_region t (r : region) =
  match t.tcache with
  | None -> ()
  | Some store ->
    let key = tcache_region_key t store r in
    let xp =
      Hashtbl.fold (fun _ p _ -> Some p) r.r_tr.pages None |> Option.get
    in
    let spec_inhibited = Translate.load_spec_inhibited r.r_tr xp.base in
    (match
       Tcache.Store.persist_region store ~key
         ~fingerprint:(Params.fingerprint r.r_tr.params)
         ~members:r.r_members xp ~spec_inhibited
     with
    | bytes ->
      t.stats.tcache_persists <- t.stats.tcache_persists + 1;
      emit t (fun () ->
          Tcache_persist { cycle = now t; page = r.r_members.(0); bytes });
      (match t.tcache_touch with Some f -> f ~key | None -> ())
    | exception Sys_error _ -> ());
    tcache_sync_degraded t store r.r_members.(0)

(** Run translated execution starting at base address [entry] until the
    program halts; returns the exit code. *)
let run t ~entry ~fuel =
  let stats = t.stats in
  let fuel_left = ref fuel in
  (* resolve a base address to a translated position; this is the
     GO_ACROSS_PAGE path, so it consults the ITLB and maintains the
     cast-out pool *)
  let rec goto_base addr =
    spec_clear t;
    let addr = addr land lnot 1 in
    if not (Memsys.Tlb.touch t.itlb (addr / t.tr.params.page_size)) then begin
      stats.itlb_misses <- stats.itlb_misses + 1;
      stats.stall_cycles <- stats.stall_cycles + t.itlb_miss_cost
    end;
    let base = Translate.page_base t.tr addr in
    match Hashtbl.find_opt t.regions base with
    | Some r -> enter_region r addr
    | None ->
    (match t.active_region with
    | Some _ ->
      (* control left a promoted region for unpromoted code: a guarded
         soft exit, not an assumption failure — the region stays in *)
      stats.tier2_offregion_exits <- stats.tier2_offregion_exits + 1;
      t.active_region <- None
    | None -> ());
    (match page_mode t base with
    | `Interp ->
      (* quarantined or pinned: the always-correct path *)
      recover_at addr
    | (`Translate | `Retry) as mode ->
      if mode = `Retry then begin
        stats.degrade_retries <- stats.degrade_retries + 1;
        emit t (fun () -> Degrade_retry { cycle = now t; page = base })
      end;
      (* translation missing: the persistent cache is probed first, and
         only for pages with no in-memory translation at all — a page
         that merely lacks this entry point gets extended in place *)
      let gate_key = ref None in
      if
        Option.is_some (tcache_for t base)
        && (not (Translate.has_entry t.tr addr))
        && not (Translate.translated t.tr addr)
      then begin
        tcache_probe t addr;
        (* still missing after the probe: contend for the per-key
           translate gate so a cold-cache storm translates each content
           key once instead of once per session.  A single attempt, no
           retry loop: if the winner failed to install we translate
           locally — a rare duplicate beats a livelock. *)
        match (t.translate_gate, tcache_for t base) with
        | Some gate, Some store
          when (not (Translate.has_entry t.tr addr))
               && not (Translate.translated t.tr addr) -> (
          let key = tcache_key t store base in
          match gate ~page:base ~key with
          | `Proceed ->
            gate_key := Some key;
            (* our miss may already be stale: a previous owner can have
               installed and released between our probe and this win.
               Installs happen before releases, so one re-probe under
               ownership closes the window — on a hit the attempt below
               takes the no-translation path and releases normally *)
            tcache_probe t addr
          | `Waited ->
            (* another session translated this key while we blocked;
               its install is visible in the store now *)
            tcache_probe t addr)
        | _ -> ()
      end;
      (* the owner must release on EVERY exit from the attempt below —
         waiters on this key block until it does *)
      let release ok =
        match (!gate_key, t.translate_release) with
        | Some key, Some f ->
          gate_key := None;
          f ~page:base ~key ~ok
        | _ -> ()
      in
      (match
         if Translate.has_entry t.tr addr then Translate.entry t.tr addr
         else begin
           (* fresh translation work: bracket it with begin/end events
              carrying the translator-total deltas for this unit, then
              persist the (new or extended) page *)
           let tot = t.tr.totals in
           let i0 = tot.insns and v0 = tot.vliws_made in
           let b0 = tot.code_bytes and g0 = tot.groups in
           (match t.translate_hook with
           | Some f -> f ~page:base ~entry:addr
           | None -> ());
           emit t (fun () ->
               Translate_begin { cycle = now t; page = base; entry = addr });
           let tb0 = Sys.time () in
           let res = Translate.entry t.tr addr in
           (match t.translate_budget with
           | Some b ->
             let dt = Sys.time () -. tb0 in
             if dt > b then raise (Translate_deadline dt)
           | None -> ());
           emit t (fun () ->
               Translate_end
                 { cycle = now t; page = base; entry = addr;
                   insns = tot.insns - i0; vliws = tot.vliws_made - v0;
                   bytes = tot.code_bytes - b0; groups = tot.groups - g0 });
           tcache_persist t (fst res);
           (match t.install_hook with Some f -> f (fst res) | None -> ());
           res
         end
       with
      | exception ((Mem.Halted _ | Out_of_fuel | Deliver _) as e) ->
        release false;
        raise e
      | exception Translate_deadline seconds ->
        release false;
        (* the translation completed but blew its wall-clock budget:
           throw the work away and quarantine the page, exactly like a
           translator fault — the ladder decides when to retry *)
        stats.deadline_hits <- stats.deadline_hits + 1;
        emit t (fun () ->
            Deadline { cycle = now t; page = base; stage = Dtranslate; seconds });
        record_failure t base;
        recover_at addr
      | exception exn ->
        release false;
        (* the translator (or an injected fault) blew up: no translated
           state exists for this page, so interpretation covers it *)
        stats.translator_faults <- stats.translator_faults + 1;
        let reason = Printexc.to_string exn in
        emit t (fun () ->
            Translator_fault { cycle = now t; page = base; entry = addr; reason });
        record_failure t base;
        recover_at addr
      | page, id -> (
        (* the persist already happened inside the attempt, so waiters
           released here re-probe straight into a hit *)
        release true;
        t.lru_tick <- t.lru_tick + 1;
        Hashtbl.replace t.lru page.base t.lru_tick;
        (match t.code_budget with
        | Some budget -> evict_to budget page.base
        | None -> ());
        t.current_page <- page.base;
        t.invalidated <- false;
        emit t (fun () ->
            Page_enter
              { cycle = now t; page = page.base; vliws_so_far = stats.vliws });
        match
          match t.page_check with Some f -> f page | None -> None
        with
        | Some reason ->
          (* the installed translation no longer matches its recorded
             digest: treat like a runtime execution fault *)
          stats.exec_faults <- stats.exec_faults + 1;
          emit t (fun () ->
              Exec_fault { cycle = now t; page = page.base; pc = addr; reason });
          tcache_evict t page.base;
          record_failure t page.base;
          recover_at addr
        | None -> dispatch page id)))
  (* Enter a promoted region at base address [addr].  The region image
     is lazily extended for entry points it has not seen (the same
     in-place extension tier-1 uses); any translator trouble demotes
     the region and re-dispatches the same address down the tier-1
     path — no state was touched, so the retry is exact. *)
  and enter_region (r : region) addr =
    let base = Translate.page_base t.tr addr in
    match Translate.entry r.r_tr addr with
    | exception ((Mem.Halted _ | Out_of_fuel | Deliver _) as e) -> raise e
    | exception exn ->
      stats.translator_faults <- stats.translator_faults + 1;
      let reason = Printexc.to_string exn in
      emit t (fun () ->
          Translator_fault { cycle = now t; page = base; entry = addr; reason });
      deopt_region t r ~page:base ~reason:("tier-2 extension: " ^ reason);
      goto_base addr
    | xp, id ->
      t.current_page <- base;
      t.active_region <- Some r;
      stats.tier2_entries <- stats.tier2_entries + 1;
      emit t (fun () ->
          Page_enter { cycle = now t; page = base; vliws_so_far = stats.vliws });
      dispatch xp id
  (* Run VLIW [id] of [xp] staged.  Staging fails before any staged code
     runs, so the VLIW's precise entry state is intact: a blown budget
     is a [Dcompile] deadline, anything else a malformed tree, counted
     as an execution fault.  Tier-1 takes a ladder strike and recovers
     by interpretation; a region image is demoted and the same address
     re-dispatched under tier-1. *)
  and dispatch (xp : Translate.xpage) id =
    match compiled_for t xp with
    | cp -> exec_c xp cp (C.get cp id)
    | exception ((Mem.Halted _ | Out_of_fuel | Deliver _) as e) -> raise e
    | exception exn -> (
      let page = t.current_page in
      let precise = (Vec.get xp.vliws id).precise_entry in
      let reason =
        match exn with
        | C.Budget_exceeded seconds ->
          stats.deadline_hits <- stats.deadline_hits + 1;
          emit t (fun () ->
              Deadline { cycle = now t; page; stage = Dcompile; seconds });
          "staging deadline"
        | exn ->
          let reason = "staging: " ^ Printexc.to_string exn in
          stats.exec_faults <- stats.exec_faults + 1;
          emit t (fun () ->
              Exec_fault { cycle = now t; page; pc = precise; reason });
          if t.active_region = None then tcache_evict t page;
          reason
      in
      match t.active_region with
      | Some r ->
        deopt_region t r ~page ~reason:("tier-2 " ^ reason);
        goto_base precise
      | None ->
        record_failure t page;
        recover_at precise)
  and evict_to budget current =
    (* cast out least-recently-entered translations until within budget *)
    let live () =
      Hashtbl.fold (fun _ (p : Translate.xpage) acc -> acc + p.code_bytes)
        t.tr.pages 0
    in
    let continue_ = ref (live () > budget) in
    while !continue_ do
      let victim = ref (-1) and best = ref max_int in
      Hashtbl.iter
        (fun base (_ : Translate.xpage) ->
          if base <> current && not (Hashtbl.mem t.pinned base) then (
            let stamp =
              match Hashtbl.find_opt t.lru base with Some s -> s | None -> 0
            in
            if stamp < !best then (
              best := stamp;
              victim := base)))
        t.tr.pages;
      if !victim < 0 then continue_ := false
      else begin
        Translate.invalidate t.tr !victim;
        drop_compiled t !victim;
        Memsys.Tlb.flush t.itlb;
        t.castouts <- t.castouts + 1;
        let victim = !victim in
        emit t (fun () -> Castout { cycle = now t; page = victim });
        continue_ := live () > budget
      end
    done
  and recover_at addr =
    (* interpretation episodes burn fuel too, or a fully-pinned run
       could never exhaust its budget *)
    let i0 = stats.interp_insns in
    let next = interpret_episode t (addr land lnot 1) in
    fuel_left := !fuel_left - (stats.interp_insns - i0);
    if !fuel_left <= 0 then begin
      t.resume_pc <- next;
      raise Out_of_fuel
    end;
    (* interpretation is guaranteed architected progress: reset the
       runaway detector and tick the supervisor at this boundary *)
    t.progress_pc <- -1;
    t.progress_ticks <- 0;
    (match t.tick_hook with Some f -> f ~pc:next | None -> ());
    goto_base next
  and commit_ck ~next =
    (* shadow verification: the packet that just committed is checked
       against the reference interpreter.  [Some pc] means a divergence
       was found and repaired back to the pre-packet snapshot — resume
       there by interpretation. *)
    match t.shadow_commit with None -> None | Some f -> f ~next
  (* --- handlers [exec_c] calls when a VLIW faulted, rolled back, left
     the page or trapped. *)
  and exec_fault_at precise reason =
    (* malformed VLIW (corruption, translator bug): no write was
       applied, so the precise entry state is intact — quarantine the
       page and redo these instructions by interpretation *)
    (match t.shadow_abort with Some f -> f () | None -> ());
    stats.exec_faults <- stats.exec_faults + 1;
    emit t (fun () ->
        Exec_fault { cycle = now t; page = t.current_page; pc = precise; reason });
    tcache_evict t t.current_page;
    record_failure t t.current_page;
    recover_at precise
  and rolled_back_at precise (reason : Exec.reason) =
    (match t.shadow_abort with Some f -> f () | None -> ());
    stats.rollbacks <- stats.rollbacks + 1;
    emit t (fun () ->
        let kind =
          match reason with
          | Ralias -> if t.pending_selfmod then RbSelfmod else RbAlias
          | Rfault _ -> RbFault
          | Rtag _ -> RbTag
        in
        Rolled_back { cycle = now t; pc = precise; kind });
    (match reason with
    | Ralias when t.pending_selfmod -> t.pending_selfmod <- false
    | Ralias when t.active_region <> None ->
      stats.aliases <- stats.aliases + 1;
      (match t.active_region with
      | Some r ->
        (* under a region image, frequent aliasing deopts instead of
           adaptively retranslating: tier-1's own tally takes over once
           the member pages run unpromoted again *)
        r.r_aliases <- r.r_aliases + 1;
        if r.r_aliases >= 32 then
          deopt_region t r ~page:t.current_page ~reason:"frequent aliasing"
      | None -> ())
    | Ralias ->
      stats.aliases <- stats.aliases + 1;
      if t.tr.params.adaptive_alias then begin
        let n =
          1
          + match Hashtbl.find_opt t.alias_tally t.current_page with
            | Some n -> n
            | None -> 0
        in
        Hashtbl.replace t.alias_tally t.current_page n;
        (* frequent aliasing: retranslate this page with load
           speculation inhibited (Section 5's suggested refinement) *)
        if n = 32 then begin
          (* the persisted entry embeds speculation decisions the
             tally just disproved; drop it so the retranslation (with
             load speculation off) is what gets re-persisted *)
          tcache_evict t t.current_page;
          Translate.inhibit_load_spec t.tr t.current_page;
          Translate.invalidate t.tr t.current_page;
          drop_compiled t t.current_page;
          stats.adaptive_retranslations <- stats.adaptive_retranslations + 1;
          emit t (fun () ->
              Retranslate_adaptive { cycle = now t; page = t.current_page })
        end
      end
    | Rfault _ | Rtag _ -> ());
    recover_at precise
  and exit_offpage a =
    stats.cross_direct <- stats.cross_direct + 1;
    emit t (fun () -> Cross_page { cycle = now t; kind = Xdirect; target = a });
    (match t.event_hook with
    | None -> ()
    | Some _ ->
      let src = t.current_page in
      let dst = Translate.page_base t.tr a in
      if dst <> src then
        emit t (fun () ->
            (* landing exactly on the next page's first byte is how a
               translation falls off its page end *)
            let kind =
              if a = src + t.tr.params.page_size then Efall else Etaken
            in
            Exit_edge { cycle = now t; src; dst; kind }));
    match commit_ck ~next:a with
    | Some p -> recover_at p
    | None -> goto_base a
  and exit_indirect precise loc kind =
    (match kind with
    | `Lr -> stats.cross_lr <- stats.cross_lr + 1
    | `Ctr -> stats.cross_ctr <- stats.cross_ctr + 1
    | `Gpr -> stats.cross_gpr <- stats.cross_gpr + 1);
    let v, tag = Vliw.Vstate.get t.st loc in
    match tag with
    | Vliw.Vstate.Clean -> (
      emit t (fun () ->
          let xkind =
            match kind with `Lr -> Xlr | `Ctr -> Xctr | `Gpr -> Xgpr
          in
          Cross_page { cycle = now t; kind = xkind; target = v land lnot 1 });
      (match t.event_hook with
      | None -> ()
      | Some _ ->
        let src = t.current_page in
        let dst = Translate.page_base t.tr (v land lnot 1) in
        (* an indirect target may resolve on-page; only a genuine page
           change is an edge *)
        if dst <> src then
          emit t (fun () ->
              let ekind =
                match kind with `Lr -> Elr | `Ctr -> Ectr | `Gpr -> Egpr
              in
              Exit_edge { cycle = now t; src; dst; kind = ekind }));
      match commit_ck ~next:(v land lnot 1) with
      | Some p -> recover_at p
      | None -> goto_base (v land lnot 1))
    | _ ->
      (* cannot branch on a tagged value: recover precisely *)
      (match t.shadow_abort with Some f -> f () | None -> ());
      stats.rollbacks <- stats.rollbacks + 1;
      emit t (fun () ->
          Rolled_back { cycle = now t; pc = precise; kind = RbTagged_target });
      recover_at precise
  and exit_trap tr =
    match tr with
    | T.Tsc next -> (
      stats.syscalls <- stats.syscalls + 1;
      emit t (fun () -> Syscall_trap { cycle = now t; next });
      Interp.interrupt t.st.m ~return_pc:next Interp.Vector.syscall;
      match commit_ck ~next:t.st.m.pc with
      | Some p -> recover_at p
      | None -> goto_base t.st.m.pc)
    | T.Trfi -> (
      let m = t.st.m in
      m.msr <- m.srr1;
      let target = m.srr0 land lnot 3 in
      (* interpret briefly after rfi, as Section 3.4 prescribes *)
      match commit_ck ~next:target with
      | Some p -> recover_at p
      | None -> recover_at target)
    | T.Tillegal a ->
      (* The translator could not crack the word at [a] — but that
         conflates two architecturally distinct cases: an illegal
         word (program interrupt) and an unfetchable pc (ISI).
         Hand the pc to the interpreter, whose own fetch/decode
         delivers the correct vector.  Found by the differential
         fuzzer: a branch to an unmapped absolute address raised a
         program interrupt here where the base architecture takes
         an instruction-storage interrupt. *)
      (match commit_ck ~next:a with Some p -> recover_at p | None -> recover_at a)
  (* --- the dispatch loop: one [exec_c] per staged VLIW, with
     intra-page control flow direct-linked through the staged exits. *)
  and exec_c (page : Translate.xpage) (cp : C.page) (cv : C.cvliw) =
    decr fuel_left;
    let precise = cv.c_tree.precise_entry in
    if !fuel_left <= 0 then begin
      t.resume_pc <- precise;
      raise Out_of_fuel
    end;
    if
      (match (t.tick_hook, t.progress_limit) with
      | None, None -> false
      | _ -> boundary_tick t ~pc:precise)
    then recover_at precise
    else if take_redispatch t ~pc:precise then
      (* a region was installed under us: leave the tier-1 chain at
         this precise boundary and dispatch into the promoted image *)
      goto_base precise
    else if (match t.prefault_hook with Some f -> f () | None -> false)
    then begin
      (* injected page-fault storm: the VLIW appears not to have
         executed, exactly like a real access fault *)
      stats.rollbacks <- stats.rollbacks + 1;
      emit t (fun () ->
          Rolled_back { cycle = now t; pc = precise; kind = RbFault });
      recover_at precise
    end
    else begin
    (match t.boundary_hook with
    | Some f when t.st.m.msr land Machine.Msr.ee <> 0 ->
      if f () then begin
        (* spurious external interrupt: VLIW boundaries are precise *)
        stats.external_interrupts <- stats.external_interrupts + 1;
        emit t (fun () -> External_interrupt { cycle = now t });
        Interp.interrupt t.st.m ~return_pc:precise Interp.Vector.external_;
        raise (Deliver t.st.m.pc)
      end
    | _ -> ());
    (match t.timer_interval with
    | Some n ->
      t.timer_count <- t.timer_count + 1;
      if t.timer_count >= n && t.st.m.msr land Machine.Msr.ee <> 0 then begin
        (* external interrupt: state at a VLIW boundary is precise *)
        t.timer_count <- 0;
        stats.external_interrupts <- stats.external_interrupts + 1;
        emit t (fun () -> External_interrupt { cycle = now t });
        Interp.interrupt t.st.m ~return_pc:precise Interp.Vector.external_;
        raise (Deliver t.st.m.pc)
      end
    | None -> ());
    if cv.c_tree.is_entry then spec_clear t;
    (match t.fetch_hook with
    | Some f ->
      f ~addr:(Vec.get page.addrs cv.c_id) ~size:(Vec.get page.sizes cv.c_id)
    | None -> ());
    (match t.shadow_arm with Some f -> f ~pc:precise | None -> ());
    (match t.active_region with
    | Some _ ->
      (* track the tier-1 page each region VLIW was entered from, so
         ladder strikes, exit edges and deadline events stay
         page-granular even under a multi-page image *)
      t.current_page <- precise land lnot (t.tr.params.page_size - 1);
      stats.tier2_vliws <- stats.tier2_vliws + 1
    | None -> ());
    stats.vliws <- stats.vliws + 1;
    match C.exec_vliw cp cv ~alias_check:(alias_check t) with
    | exception Exec.Error reason -> exec_fault_at precise reason
    | exception Exec.Roll reason -> rolled_back_at precise reason
    | leaf ->
      let s = t.cscratch in
      (match t.access_hook with
      | None ->
        for i = 0 to s.a_n - 1 do
          if s.a_store.(i) then stats.stores <- stats.stores + 1
          else begin
            stats.loads <- stats.loads + 1;
            if s.a_passed.(i) then
              spec_push t s.a_addr.(i) s.a_bytes.(i) s.a_seq.(i)
          end
        done
      | Some f ->
        for i = 0 to s.a_n - 1 do
          if s.a_store.(i) then stats.stores <- stats.stores + 1
          else begin
            stats.loads <- stats.loads + 1;
            if s.a_passed.(i) then
              spec_push t s.a_addr.(i) s.a_bytes.(i) s.a_seq.(i)
          end;
          f
            { Exec.addr = s.a_addr.(i); bytes = s.a_bytes.(i);
              seq = s.a_seq.(i); passed_store = s.a_passed.(i);
              store = s.a_store.(i) }
        done);
      (* note: a self-modifying store never reaches this point — the
         alias/code-mod check rolls the VLIW back first, and the store
         then happens inside the interpretation episode, where the
         memory hook invalidates the page before re-entry *)
      (match leaf.exit with
      | C.Cnext cv' -> (
        match commit_ck ~next:cv'.c_tree.precise_entry with
        | Some p -> recover_at p
        | None -> exec_c page cp cv')
      | C.Cnext_id id' -> (
        let cv' = C.get cp id' in
        match commit_ck ~next:cv'.c_tree.precise_entry with
        | Some p -> recover_at p
        | None -> exec_c page cp cv')
      | C.Conpage link -> (
        stats.onpage_jumps <- stats.onpage_jumps + 1;
        match commit_ck ~next:(page.base + link.l_off) with
        | Some p -> recover_at p
        | None ->
          if link.l_entry >= 0 then begin
            (* steady state: the memoized slot, no Hashtbl probe *)
            stats.direct_link_hits <- stats.direct_link_hits + 1;
            spec_clear t;
            exec_c page cp (C.get cp link.l_entry)
          end
          else (
            match Hashtbl.find_opt page.entries link.l_off with
            | Some id' ->
              link.l_entry <- id';
              spec_clear t;
              exec_c page cp (C.get cp id')
            | None ->
              (* invalid entry exception *)
              emit t (fun () ->
                  Cross_page
                    { cycle = now t; kind = Xinvalid_entry;
                      target = page.base + link.l_off });
              goto_base (page.base + link.l_off)))
      | C.Coffpage a -> exit_offpage a
      | C.Cindirect (loc, kind) -> exit_indirect precise loc kind
      | C.Ctrap tr -> exit_trap tr)
    end
  in
  let rec drive addr =
    match goto_base addr with
    | () -> None  (* unreachable: the loop exits via exceptions *)
    | exception Mem.Halted code -> Some code
    | exception Out_of_fuel -> None
    | exception Deliver vector -> drive vector
  in
  t.resume_pc <- entry;
  drive entry
