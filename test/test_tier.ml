(* Tests for the tier-2 promotion driver: an attached driver must
   promote hot regions without perturbing a single architected bit
   (Run.run diffs registers, memory and console against the reference
   interpreter), a store into a promoted member page must deopt back to
   tier-1, still verify and evict the region's cache entry, events
   emitted inside a region's cache probe must not compile a candidate
   twice, a region goes live only at a committed boundary, the one
   whose evaluation compiled it, a persisted region image must
   re-promote on warm start without recompiling, and a hot single page
   later absorbed into a cross-page SCC must be superseded by the wider
   image. *)

module Params = Translator.Params
module Run = Vmm.Run
module Monitor = Vmm.Monitor
module Tier = Obs.Tier

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_tier.%d.%d" (Unix.getpid ()) !n)
    in
    Tcache.Store.mkdir_p d;
    d

(* Eager promotion: thresholds low enough that every workload with a
   hot loop promotes early. *)
let eager_cfg = { Tier.default with min_heat = 2_000; edge_threshold = 50 }

let run_with_tier ?cfg ?tcache_dir w =
  let captured = ref None in
  let r =
    Run.run ?tcache_dir
      ~instrument:(fun vmm -> captured := Some (vmm, Tier.attach ?cfg vmm))
      w
  in
  match !captured with
  | Some (vmm, t) -> (r, vmm, t)
  | None -> Alcotest.fail "instrument was never called"

(* --- promotion is architecturally invisible ------------------------- *)

let test_promotion_differential () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let r, vmm, t = run_with_tier ~cfg:eager_cfg w in
  Alcotest.(check (option int)) "exit code" (Some 1899) r.Run.exit_code;
  Alcotest.(check bool) "promoted" true (vmm.stats.tier2_promotions >= 1);
  Alcotest.(check bool) "region actually executed" true
    (vmm.stats.tier2_vliws > 0);
  Alcotest.(check bool) "driver installed it" true (t.Tier.installed >= 1);
  Alcotest.(check bool) "no deopt on a clean run" true
    (vmm.stats.tier2_deopts = 0)

(* The same property across every workload: promotion at aggressive
   thresholds must never change an observable result (Run.run raises
   Mismatch on any divergence). *)
let test_promotion_differential_all () =
  List.iter
    (fun w -> ignore (run_with_tier ~cfg:eager_cfg w))
    Workloads.Registry.all

(* --- self-modifying store in a member page deopts ------------------- *)

let test_selfmod_deopts () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let poked = ref false in
  let r =
    Run.run
      ~instrument:(fun vmm ->
        ignore (Tier.attach ~cfg:eager_cfg vmm);
        (* after the tier driver: fires at committed boundaries only,
           exactly like the fault injector's selfmod class *)
        Monitor.on_tick vmm (fun ~pc:_ ->
            if not !poked then
              match Monitor.live_regions vmm with
              | r :: _ ->
                let base = r.Monitor.r_members.(0) in
                (* same-value store: pure code-invalidation signal *)
                Ppc.Mem.store8 vmm.Monitor.mem base
                  (Ppc.Mem.load8 vmm.Monitor.mem base);
                poked := true
              | [] -> ()))
      w
  in
  Alcotest.(check bool) "store landed" true !poked;
  Alcotest.(check (option int)) "still bit-exact" (Some 1899) r.Run.exit_code

let test_selfmod_deopt_counted () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let captured = ref None in
  let poked = ref false in
  let _ =
    Run.run
      ~instrument:(fun vmm ->
        captured := Some vmm;
        ignore (Tier.attach ~cfg:eager_cfg vmm);
        Monitor.on_tick vmm (fun ~pc:_ ->
            if not !poked then
              match Monitor.live_regions vmm with
              | r :: _ ->
                Ppc.Mem.store8 vmm.Monitor.mem r.Monitor.r_members.(0)
                  (Ppc.Mem.load8 vmm.Monitor.mem r.Monitor.r_members.(0));
                poked := true
              | [] -> ()))
      w
  in
  match !captured with
  | None -> Alcotest.fail "no vmm"
  | Some vmm ->
    Alcotest.(check bool) "deopt recorded" true (vmm.stats.tier2_deopts >= 1)

(* A deopt evicts the region's cache entry, under the key the region
   kept from its promotion: c_sieve with a cache persists its image, a
   same-value store into a member page deopts it, and the region entry
   is gone from the directory. *)
let test_deopt_evicts_entry () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let regions () =
    List.filter
      (fun (i : Tcache.Store.info) -> i.kind = `Region)
      (Tcache.Store.list_dir dir)
  in
  let seen = ref None in
  let r =
    Run.run ~tcache_dir:dir
      ~instrument:(fun vmm ->
        ignore (Tier.attach ~cfg:eager_cfg vmm);
        Monitor.on_tick vmm (fun ~pc:_ ->
            if !seen = None then
              match Monitor.live_regions vmm with
              | r :: _ ->
                let before = List.length (regions ()) in
                let base = r.Monitor.r_members.(0) in
                Ppc.Mem.store8 vmm.Monitor.mem base
                  (Ppc.Mem.load8 vmm.Monitor.mem base);
                seen := Some (before, List.length (regions ()))
              | [] -> ()))
      w
  in
  Alcotest.(check (option int)) "still bit-exact" (Some 1899) r.Run.exit_code;
  (match !seen with
  | None -> Alcotest.fail "no region went live"
  | Some (before, after) ->
    Alcotest.(check int) "the image was persisted" 1 before;
    Alcotest.(check int) "the deopt evicted it" 0 after);
  Alcotest.(check bool) "evict counted" true (r.stats.tcache_evicts >= 1);
  ignore (Tcache.Store.clear_dir dir)

(* --- install ----------------------------------------------------------- *)

(* A [submit] that never runs the job leaves the compile failed:
   nothing installs, and the run is unaffected. *)
let test_dropped_compile () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let r, vmm, t =
    run_with_tier ~cfg:{ eager_cfg with submit = Some ignore } w
  in
  Alcotest.(check (option int)) "exit code" (Some 1899) r.Run.exit_code;
  Alcotest.(check int) "nothing installed" 0 t.Tier.installed;
  Alcotest.(check int) "no promotion" 0 vmm.stats.tier2_promotions

(* A region's cache probe emits events from inside the compile, and
   the driver receives them even at [check_every = 1], where every
   boundary evaluates the policy.  An event evaluates nothing, so the
   candidate whose compile is still running is not launched again:
   each candidate is compiled once, and the one image installs. *)
let test_probe_reentry_compiles_once () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let compiles = ref 0 in
  let submit job = incr compiles; job () in
  let cfg = { eager_cfg with check_every = 1; submit = Some submit } in
  let r, vmm, t = run_with_tier ~cfg ~tcache_dir:dir w in
  Alcotest.(check (option int)) "exit code" (Some 1899) r.Run.exit_code;
  Alcotest.(check int) "one promotion" 1 vmm.stats.tier2_promotions;
  Alcotest.(check int) "compiled once" 1 !compiles;
  Alcotest.(check int) "no image rejected" !compiles t.Tier.installed;
  Alcotest.(check int) "the region probe missed too"
    (r.pages_translated + 1) vmm.stats.tcache_misses;
  ignore (Tcache.Store.clear_dir dir)

(* --- when a region goes live ---------------------------------------- *)

(* The monitor emits events in the middle of its own transitions (a
   store's before the store lands, a strike's deopt before the strike
   counts), so a region must go live only inside a committed-boundary
   tick: a tick subscriber before [Tier]'s raises a flag, one after it
   lowers it, and every [Region_promoted] must see it raised.  No
   cache, so no warm start promotes at attach.  Installing from events
   fails here on gcc and lex, not on c_sieve or compress. *)
let test_swaps_only_at_ticks () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let in_tick = ref false and promoted = ref 0 and outside = ref 0 in
      let r =
        Run.run w ~instrument:(fun vmm ->
            Monitor.on_tick vmm (fun ~pc:_ -> in_tick := true);
            ignore (Tier.attach vmm);
            Monitor.on_tick vmm (fun ~pc:_ -> in_tick := false);
            Monitor.on_event vmm (function
              | Monitor.Region_promoted _ ->
                incr promoted;
                if not !in_tick then incr outside
              | _ -> ()))
      in
      Alcotest.(check bool) (name ^ ": verified") true (r.Run.exit_code <> None);
      Alcotest.(check bool) (name ^ ": promoted") true (!promoted >= 1);
      Alcotest.(check int) (name ^ ": promotions outside a tick") 0 !outside)
    [ "c_sieve"; "compress"; "gcc"; "lex" ]

(* A region goes live at the boundary whose evaluation compiled it: the
   VMM clock read as the compile starts equals the cycle of the
   promotion that follows.  An install queued for the next boundary
   fails here. *)
let test_live_at_compile_boundary () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let vmm = ref None and compiled_at = ref (-1) and pairs = ref [] in
      let submit job =
        compiled_at := Monitor.now (Option.get !vmm);
        job ()
      in
      let r =
        Run.run w ~instrument:(fun v ->
            vmm := Some v;
            ignore (Tier.attach ~cfg:{ Tier.default with submit = Some submit } v);
            Monitor.on_event v (function
              | Monitor.Region_promoted { cycle; _ } ->
                pairs := (!compiled_at, cycle) :: !pairs
              | _ -> ()))
      in
      Alcotest.(check bool) (name ^ ": verified") true (r.Run.exit_code <> None);
      Alcotest.(check bool) (name ^ ": promoted") true (!pairs <> []);
      List.iter
        (fun (c, p) ->
          Alcotest.(check int) (name ^ ": live at the compile's cycle") c p)
        !pairs)
    [ "c_sieve"; "compress"; "gcc"; "lex" ]

(* --- staging a region image fails ------------------------------------ *)

(* Once the first region is promoted, every staging overruns its budget.
   The region image is demoted before any of it runs, and the same
   address re-dispatches under tier-1, so the run still verifies. *)
let test_staging_deadline_deopts () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let captured = ref None in
  let reasons = ref [] in
  let r =
    Run.run
      ~instrument:(fun vmm ->
        captured := Some vmm;
        ignore (Tier.attach ~cfg:eager_cfg vmm);
        Monitor.on_event vmm (function
          | Monitor.Region_promoted _ when vmm.compile_budget = None ->
            vmm.compile_budget <- Some (-1.)
          | Monitor.Region_deopt { reason; _ } -> reasons := reason :: !reasons
          | _ -> ()))
      w
  in
  Alcotest.(check (option int)) "still bit-exact" (Some 1899) r.Run.exit_code;
  let vmm = Option.get !captured in
  Alcotest.(check bool) "deopt recorded" true (vmm.stats.tier2_deopts >= 1);
  Alcotest.(check bool) "deopt names the staging deadline" true
    (List.mem "tier-2 staging deadline" !reasons)

(* A region image is compiled deterministically, so one that deopts for
   frequent aliasing would alias the same way again: its candidate is
   blacklisted at the first such deopt.  Without that, lex and sort each
   promote one member set two or three times, and each image deopts for
   aliasing. *)
let test_aliasing_deopt_blacklists () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let members = Hashtbl.create 8 and aliased = Hashtbl.create 8 in
      let r =
        Run.run w ~instrument:(fun vmm ->
            ignore (Tier.attach vmm);
            Monitor.on_event vmm (function
              | Monitor.Region_promoted { id; _ } ->
                List.iter
                  (fun (r : Monitor.region) ->
                    if r.r_id = id then Hashtbl.replace members id r.r_members)
                  (Monitor.live_regions vmm)
              | Monitor.Region_deopt { id; reason; _ }
                when reason = Monitor.frequent_aliasing ->
                let set = Hashtbl.find members id in
                Hashtbl.replace aliased set
                  (1 + Option.value ~default:0 (Hashtbl.find_opt aliased set))
              | _ -> ()))
      in
      Alcotest.(check bool) (name ^ ": verified") true (r.Run.exit_code <> None);
      Alcotest.(check bool) (name ^ ": aliased out") true
        (Hashtbl.length aliased >= 1);
      Hashtbl.iter
        (fun _ n ->
          Alcotest.(check int) (name ^ ": aliasing deopts of one member set")
            1 n)
        aliased)
    [ "lex"; "sort" ]

(* --- warm start ------------------------------------------------------ *)

let test_warm_start_repromotes () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let _, vmm1, _ = run_with_tier ~cfg:eager_cfg ~tcache_dir:dir w in
  Alcotest.(check bool) "cold run promoted" true
    (vmm1.stats.tier2_promotions >= 1);
  (* the image must come from disk: installed (and counted as a cached
     promotion) at attach time, before a single VLIW has run *)
  let at_attach = ref (-1) in
  let r2 =
    Run.run ~tcache_dir:dir
      ~instrument:(fun vmm ->
        let t = Tier.attach ~cfg:eager_cfg vmm in
        at_attach := t.Tier.installed)
      w
  in
  Alcotest.(check (option int)) "warm exit code" (Some 1899) r2.Run.exit_code;
  Alcotest.(check bool) "installed at attach time" true (!at_attach >= 1)

(* A stale image must NOT re-promote: the region key is computed over
   the *current* member bytes, so flipping one byte before the warm
   start makes the lookup miss.  No execution needed — warm_start runs
   at attach time. *)
let test_warm_start_rejects_stale () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  let _, vmm1, _ = run_with_tier ~cfg:eager_cfg ~tcache_dir:dir w in
  let base =
    match Monitor.live_regions vmm1 with
    | r :: _ -> r.Monitor.r_members.(0)
    | [] -> Alcotest.fail "cold run left no live region"
  in
  Alcotest.(check bool) "region persisted" true
    (List.exists
       (fun (i : Tcache.Store.info) -> i.kind = `Region)
       (Tcache.Store.list_dir dir));
  (* pristine bytes: attach re-promotes without running anything *)
  let mem, _ = Workloads.Wl.instantiate w in
  let vmm = Monitor.create ~tcache_dir:dir mem in
  let t = Tier.attach ~cfg:eager_cfg vmm in
  Alcotest.(check bool) "pristine bytes re-promote" true (t.Tier.installed >= 1);
  (* one flipped byte in a member page: key misses, nothing installs *)
  let mem, _ = Workloads.Wl.instantiate w in
  Ppc.Mem.store8 mem base (Ppc.Mem.load8 mem base lxor 0xFF);
  let vmm = Monitor.create ~tcache_dir:dir mem in
  let t = Tier.attach ~cfg:eager_cfg vmm in
  Alcotest.(check int) "stale bytes do not re-promote" 0 t.Tier.installed

(* Warm start opens region entries only: next to 64 page entries, the
   store lists the one region entry (its key under the region prefix),
   and attaching reads that entry once and nothing else through the
   store's backend, and promotes from it. *)
let test_warm_start_reads_regions_only () =
  let w = Workloads.Registry.by_name "c_sieve" in
  let dir = fresh_dir () in
  ignore (run_with_tier ~cfg:eager_cfg ~tcache_dir:dir w);
  let region =
    match
      List.filter
        (fun (i : Tcache.Store.info) -> i.kind = `Region)
        (Tcache.Store.list_dir dir)
    with
    | [ i ] -> i.key
    | l -> Alcotest.failf "expected 1 region entry, got %d" (List.length l)
  in
  let mem, entry = Workloads.Wl.instantiate w in
  let store =
    Tcache.Store.open_store ~dir ~frontend:"ppc"
      ~fingerprint:(Params.fingerprint Params.default) ()
  in
  let tr = Translator.Translate.create Params.default mem in
  let page, _ = Translator.Translate.entry tr entry in
  for i = 1 to 64 do
    let key = Tcache.Store.key store ~base:page.base (string_of_int i) in
    ignore (Tcache.Store.persist store ~key page ~spec_inhibited:false)
  done;
  Alcotest.(check (list string)) "listed region entries" [ region ]
    (List.map (fun (k, _, _) -> k) (Tcache.Store.region_entries store));
  Alcotest.(check bool) "under the region prefix" true
    (String.starts_with ~prefix:Tcache.Store.region_prefix region);
  let reads = ref [] in
  let io =
    { Fsio.real with
      read_file =
        (fun path ->
          reads := Filename.basename path :: !reads;
          Fsio.real.read_file path) }
  in
  let vmm = Monitor.create ~tcache_dir:dir ~tcache_io:io mem in
  let t = Tier.attach ~cfg:eager_cfg vmm in
  Alcotest.(check int) "promoted from the region entry" 1 t.Tier.installed;
  Alcotest.(check (list string)) "read only the region entry, once"
    [ region ^ ".dtc" ] !reads;
  ignore (Tcache.Store.clear_dir dir)

(* --- upgrade: a wider SCC supersedes a hot single page --------------- *)

let test_upgrade_absorbs_single () =
  let w = Workloads.Registry.by_name "compress" in
  (* huge edge threshold first would block the SCC; aggressive single
     promotion plus a reachable edge threshold reproduces the observed
     single-then-SCC sequence *)
  let cfg = { Tier.default with min_heat = 2_000; edge_threshold = 250 } in
  let captured = ref None in
  let r =
    Run.run
      ~instrument:(fun vmm -> captured := Some (vmm, Tier.attach ~cfg vmm))
      w
  in
  Alcotest.(check (option int)) "exit code" (Some 11415) r.Run.exit_code;
  match !captured with
  | None -> Alcotest.fail "no vmm"
  | Some (vmm, _) ->
    Alcotest.(check bool) "promoted more than once" true
      (vmm.stats.tier2_promotions >= 2);
    Alcotest.(check bool) "the narrow image was superseded" true
      (vmm.stats.tier2_deopts >= 1);
    let widest =
      List.fold_left
        (fun n (r : Monitor.region) -> max n (Array.length r.r_members))
        0
        (Monitor.live_regions vmm)
    in
    Alcotest.(check bool) "a multi-page region survives" true (widest >= 2)

(* --- attach order ---------------------------------------------------- *)

(* The monitor composes every subscriber, so the driver sees the same
   events whether it goes on before or after the observers' bridge: the
   run, its promotions and the bridge's profile come out the same. *)
let test_attach_either_order () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let counts ~tier_first =
        let profile =
          Obs.Profile.create ~page_size:Params.default.page_size ()
        in
        let bridge = Obs.Bridge.create ~profile () in
        let r =
          Run.run w ~instrument:(fun vmm ->
              if tier_first then ignore (Tier.attach vmm);
              Obs.Bridge.attach bridge vmm;
              if not tier_first then ignore (Tier.attach vmm))
        in
        [ r.stats.vliws; r.stats.tier2_promotions; Obs.Profile.total_entries profile;
          Obs.Profile.total_edges profile ]
      in
      let tier_last = counts ~tier_first:false in
      Alcotest.(check (list int)) (name ^ ": same counts") tier_last
        (counts ~tier_first:true);
      Alcotest.(check bool) (name ^ ": promoted") true
        (List.nth tier_last 1 >= 1))
    [ "c_sieve"; "compress" ]

let () =
  Alcotest.run "tier"
    [ ( "promotion",
        [ Alcotest.test_case "differential (c_sieve)" `Quick
            test_promotion_differential;
          Alcotest.test_case "differential (all workloads)" `Slow
            test_promotion_differential_all ] );
      ( "deopt",
        [ Alcotest.test_case "selfmod stays bit-exact" `Quick
            test_selfmod_deopts;
          Alcotest.test_case "selfmod counted" `Quick
            test_selfmod_deopt_counted;
          Alcotest.test_case "a deopt evicts the region's entry" `Quick
            test_deopt_evicts_entry;
          Alcotest.test_case "staging deadline" `Quick
            test_staging_deadline_deopts;
          Alcotest.test_case "an aliasing deopt blacklists" `Quick
            test_aliasing_deopt_blacklists ] );
      ( "install",
        [ Alcotest.test_case "dropped compile" `Quick test_dropped_compile;
          Alcotest.test_case "probe re-entry compiles once" `Quick
            test_probe_reentry_compiles_once;
          Alcotest.test_case "swaps only at ticks" `Quick
            test_swaps_only_at_ticks;
          Alcotest.test_case "live at the boundary that compiled it" `Quick
            test_live_at_compile_boundary ] );
      ( "warm",
        [ Alcotest.test_case "repromotes from cache" `Quick
            test_warm_start_repromotes;
          Alcotest.test_case "content-keyed" `Quick
            test_warm_start_rejects_stale;
          Alcotest.test_case "reads region entries only" `Quick
            test_warm_start_reads_regions_only ] );
      ( "upgrade",
        [ Alcotest.test_case "SCC absorbs single" `Quick
            test_upgrade_absorbs_single ] );
      ( "attach",
        [ Alcotest.test_case "either order" `Quick test_attach_either_order ] )
    ]
