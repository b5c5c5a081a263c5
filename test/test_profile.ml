(* Tests for the region profiler and its persistence: codec round-trips
   (property-based), corruption and version refusal, commutative merge
   and the accumulate-equals-sum acceptance property, temp-file hygiene,
   synthetic region (SCC) detection, the flight recorder's ring
   arithmetic, and the end-to-end crash-dump path — an injected
   translator fault must leave a dump whose event tail names the
   faulting page. *)

module Profile = Obs.Profile
module Pstore = Obs.Pstore
module Flight = Obs.Flight
module Monitor = Vmm.Monitor
module Codec = Tcache.Codec

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "daisy_test_profile.%d.%d" (Unix.getpid ()) !n)
    in
    Tcache.Store.mkdir_p d;
    d

(* --- structural views (hashtables defeat polymorphic equality) ----- *)

let pages_alist (p : Profile.t) =
  Hashtbl.fold
    (fun _ (q : Profile.page) acc ->
      ( q.base,
        (q.entries, q.vliws, q.interp_insns, q.translations,
         q.insns_scheduled, q.code_bytes) )
      :: acc)
    p.pages []
  |> List.sort compare

let edges_alist (p : Profile.t) =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) p.edges []
  |> List.sort compare

let profile_equal a b =
  a.Profile.page_size = b.Profile.page_size
  && a.runs = b.runs
  && pages_alist a = pages_alist b
  && edges_alist a = edges_alist b

(* --- generator ----------------------------------------------------- *)

let all_kinds =
  [ Monitor.Etaken; Monitor.Efall; Monitor.Elr; Monitor.Ectr; Monitor.Egpr;
    Monitor.Einterp ]

let gen_profile : Profile.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* shift = int_range 6 12 in
  let page_size = 1 lsl shift in
  let aligned = map (fun i -> i * page_size) (int_range 0 64) in
  let* runs = int_range 1 20 in
  let* npages = int_range 0 12 in
  let* nedges = int_range 0 24 in
  let* page_rows =
    list_repeat npages
      (tup2 aligned
         (tup2 (int_range 0 10_000)
            (tup2 (int_range 0 10_000)
               (tup2 (int_range 0 10_000)
                  (tup2 (int_range 0 100)
                     (tup2 (int_range 0 10_000) (int_range 0 4096)))))))
  in
  let* edge_rows =
    list_repeat nedges
      (tup2 aligned (tup2 aligned (tup2 (oneofl all_kinds) (int_range 1 10_000))))
  in
  let p = Profile.create ~page_size () in
  p.runs <- runs;
  List.iter
    (fun (base, (entries, (vliws, (interp, (xl, (sched, bytes)))))) ->
      let q = Profile.page p base in
      q.entries <- entries;
      q.vliws <- vliws;
      q.interp_insns <- interp;
      q.translations <- xl;
      q.insns_scheduled <- sched;
      q.code_bytes <- bytes)
    page_rows;
  List.iter
    (fun (src, (dst, (kind, n))) -> Profile.edge_n p ~src ~dst ~kind n)
    edge_rows;
  return p

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode profile) = profile" ~count:300
    (QCheck.make gen_profile) (fun p ->
      let fe, fp, q =
        Pstore.decode (Pstore.encode ~frontend:"ppc" ~fingerprint:"fp:test" p)
      in
      fe = "ppc" && fp = "fp:test" && profile_equal p q)

(* --- corruption and version refusal -------------------------------- *)

let sample_profile () =
  let p = Profile.create ~page_size:4096 () in
  Profile.enter p ~page:0x1000 ~vliws_so_far:0;
  Profile.enter p ~page:0x2000 ~vliws_so_far:10;
  Profile.interp p ~pc:0x2004 ~insns:7;
  Profile.translated p ~page:0x1000 ~insns:40 ~bytes:256;
  Profile.edge_n p ~src:0x1000 ~dst:0x2000 ~kind:Monitor.Etaken 5;
  Profile.edge_n p ~src:0x2000 ~dst:0x1000 ~kind:Monitor.Elr 4;
  Profile.flush p ~vliws_total:30;
  p

let expect_corrupt what s =
  match Pstore.decode s with
  | _ -> Alcotest.failf "%s: decode accepted corrupt input" what
  | exception Codec.Corrupt _ -> ()

let test_codec_rejects_corruption () =
  let good = Pstore.encode ~frontend:"ppc" ~fingerprint:"fp" (sample_profile ()) in
  ignore (Pstore.decode good);
  (* payload is covered by the checksum: flipping any payload byte must
     trip it (the header before the digest is covered by the length and
     fingerprint checks in [load]) *)
  let payload_start = String.length good - 10 in
  for i = payload_start to String.length good - 1 do
    let b = Bytes.of_string good in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    expect_corrupt (Printf.sprintf "flip@%d" i) (Bytes.to_string b)
  done;
  expect_corrupt "truncated" (String.sub good 0 (String.length good - 3));
  expect_corrupt "bad magic" ("XPRF" ^ String.sub good 4 (String.length good - 4));
  expect_corrupt "empty" ""

let test_codec_refuses_future_version () =
  let good = Pstore.encode ~frontend:"ppc" ~fingerprint:"fp" (sample_profile ()) in
  let b = Bytes.of_string good in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
  match Pstore.decode (Bytes.to_string b) with
  | _ -> Alcotest.fail "decode accepted a future version"
  | exception Codec.Corrupt msg ->
    Alcotest.(check bool) "refusal names the version" true
      (String.length msg >= 7 && String.sub msg 0 7 = "version")

(* --- merge and accumulate ------------------------------------------ *)

let test_merge_commutes () =
  let totals p =
    (Profile.total_entries p, Profile.total_edges p, p.Profile.runs)
  in
  let ab =
    let a = sample_profile () and b = sample_profile () in
    Profile.edge_n b ~src:0x3000 ~dst:0x1000 ~kind:Monitor.Ectr 9;
    Profile.merge ~into:a b;
    totals a
  and ba =
    let a = sample_profile () and b = sample_profile () in
    Profile.edge_n b ~src:0x3000 ~dst:0x1000 ~kind:Monitor.Ectr 9;
    Profile.merge ~into:b a;
    totals b
  in
  Alcotest.(check (triple int int int)) "merge order is irrelevant" ab ba

(* The acceptance property: page counters accumulate across runs, edge
   heat is the per-run mean (promotion thresholds are per-run figures,
   so a hundred accumulated runs must not read a hundred times hotter). *)
let test_accumulate_is_sum () =
  let dir = fresh_dir () in
  let store () = Pstore.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp:acc" () in
  let one = sample_profile () in
  let _, _ = Pstore.accumulate (store ()) (sample_profile ()) in
  let merged, _ = Pstore.accumulate (store ()) (sample_profile ()) in
  Alcotest.(check int) "entries = 2x one run"
    (2 * Profile.total_entries one)
    (Profile.total_entries merged);
  Alcotest.(check int) "edges = per-run mean, not the sum"
    (Profile.total_edges one)
    (Profile.total_edges merged);
  Alcotest.(check int) "runs counted" 2 merged.Profile.runs;
  match Pstore.load (store ()) with
  | `Hit p ->
    Alcotest.(check bool) "reload equals merged" true (profile_equal p merged)
  | _ -> Alcotest.fail "expected a hit after accumulate"

let test_open_sweeps_orphan_tmp () =
  let dir = fresh_dir () in
  let orphan = Filename.concat dir ".profile123.tmp" in
  let oc = open_out_bin orphan in
  output_string oc "half-written";
  close_out oc;
  let keep = Filename.concat dir "README" in
  let oc = open_out_bin keep in
  close_out oc;
  let s = Pstore.open_store ~dir ~frontend:"ppc" ~fingerprint:"fp" () in
  Alcotest.(check int) "swept one" 1 s.Pstore.swept_tmp;
  Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
  Alcotest.(check bool) "foreign file untouched" true (Sys.file_exists keep)

(* --- regions (SCC) -------------------------------------------------- *)

let test_regions_finds_cycle () =
  let p = Profile.create ~page_size:4096 () in
  (* hot 2-cycle A<->B, a hot one-way edge into C (no cycle), and a cold
     2-cycle D<->E below threshold *)
  Profile.edge_n p ~src:0x1000 ~dst:0x2000 ~kind:Monitor.Etaken 100;
  Profile.edge_n p ~src:0x2000 ~dst:0x1000 ~kind:Monitor.Elr 90;
  Profile.edge_n p ~src:0x2000 ~dst:0x3000 ~kind:Monitor.Efall 80;
  Profile.edge_n p ~src:0x4000 ~dst:0x5000 ~kind:Monitor.Etaken 2;
  Profile.edge_n p ~src:0x5000 ~dst:0x4000 ~kind:Monitor.Etaken 2;
  match Profile.regions ~threshold:10 p with
  | [ r ] ->
    Alcotest.(check (list int)) "members" [ 0x1000; 0x2000 ] r.Profile.rpages;
    Alcotest.(check int) "internal weight" 190 r.internal_weight;
    Alcotest.(check int) "edge count" 2 (List.length r.redges)
  | rs -> Alcotest.failf "expected exactly one region, got %d" (List.length rs)

let test_regions_self_loop () =
  let p = Profile.create ~page_size:4096 () in
  Profile.edge_n p ~src:0x1000 ~dst:0x1000 ~kind:Monitor.Egpr 50;
  Profile.edge_n p ~src:0x2000 ~dst:0x3000 ~kind:Monitor.Etaken 50;
  match Profile.regions ~threshold:1 p with
  | [ r ] ->
    Alcotest.(check (list int)) "self-loop is a region" [ 0x1000 ]
      r.Profile.rpages
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

(* A page that is merely *visited* (entered, translated) but has no hot
   edge at all must never surface as a region: singleton SCCs only count
   with a self-loop. *)
let test_regions_single_node_no_edge () =
  let p = Profile.create ~page_size:4096 () in
  Profile.enter p ~page:0x1000 ~vliws_so_far:0;
  Profile.translated p ~page:0x1000 ~insns:64 ~bytes:512;
  Profile.flush p ~vliws_total:100_000;
  Alcotest.(check int) "no region without an edge" 0
    (List.length (Profile.regions ~threshold:1 p))

(* Two disjoint cycles at exactly equal heat: both must be reported,
   each with its own member set — equal heat must not collapse, mask or
   drop either one.  Rank order between equals is unspecified; sort. *)
let test_regions_disjoint_equal_heat () =
  let p = Profile.create ~page_size:4096 () in
  Profile.edge_n p ~src:0x1000 ~dst:0x2000 ~kind:Monitor.Etaken 40;
  Profile.edge_n p ~src:0x2000 ~dst:0x1000 ~kind:Monitor.Elr 40;
  Profile.edge_n p ~src:0x7000 ~dst:0x8000 ~kind:Monitor.Etaken 40;
  Profile.edge_n p ~src:0x8000 ~dst:0x7000 ~kind:Monitor.Elr 40;
  match Profile.regions ~threshold:10 p with
  | [ a; b ] ->
    let members =
      List.sort compare [ a.Profile.rpages; b.Profile.rpages ]
    in
    Alcotest.(check (list (list int))) "both cycles present"
      [ [ 0x1000; 0x2000 ]; [ 0x7000; 0x8000 ] ]
      members;
    Alcotest.(check int) "equal internal weight" a.Profile.internal_weight
      b.Profile.internal_weight
  | rs -> Alcotest.failf "expected two regions, got %d" (List.length rs)

(* The threshold is inclusive: an edge at exactly [threshold] keeps the
   cycle alive; one traversal fewer dissolves it. *)
let test_regions_threshold_boundary () =
  let build n =
    let p = Profile.create ~page_size:4096 () in
    Profile.edge_n p ~src:0x1000 ~dst:0x2000 ~kind:Monitor.Etaken n;
    Profile.edge_n p ~src:0x2000 ~dst:0x1000 ~kind:Monitor.Etaken n;
    p
  in
  (match Profile.regions ~threshold:10 (build 10) with
  | [ r ] ->
    Alcotest.(check (list int)) "heat == threshold is kept"
      [ 0x1000; 0x2000 ] r.Profile.rpages
  | rs -> Alcotest.failf "at threshold: expected one region, got %d"
            (List.length rs));
  Alcotest.(check int) "heat == threshold - 1 dissolves" 0
    (List.length (Profile.regions ~threshold:10 (build 9)))

(* --- flight ring ---------------------------------------------------- *)

let test_flight_ring_wraps () =
  let dir = fresh_dir () in
  let f = Flight.create ~capacity:8 ~dir () in
  for c = 1 to 11 do
    Flight.push f (Monitor.Syscall_trap { cycle = c; next = 0 })
  done;
  Alcotest.(check int) "total" 11 (Flight.total f);
  Alcotest.(check int) "dropped" 3 (Flight.dropped f);
  let cycles =
    List.map
      (function Monitor.Syscall_trap { cycle; _ } -> cycle | _ -> -1)
      (Flight.events f)
  in
  Alcotest.(check (list int)) "oldest-first tail" [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    cycles

let test_flight_dump_first_wins () =
  let dir = fresh_dir () in
  let f = Flight.create ~capacity:8 ~dir () in
  Flight.push f (Monitor.External_interrupt { cycle = 1 });
  let first = Flight.dump f ~reason:"quarantine" in
  Alcotest.(check bool) "first dump written" true (first <> None);
  Alcotest.(check (option string)) "repeat suppressed" None
    (Flight.dump f ~reason:"quarantine");
  Alcotest.(check int) "one dump listed" 1 (List.length (Flight.dumps f))

(* --- end to end: translator fault -> crash dump --------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_fault_leaves_crash_dump () =
  let dir = fresh_dir () in
  let w = Workloads.Registry.by_name "c_sieve" in
  let params = { Translator.Params.default with page_size = 64 } in
  let mem, entry = Workloads.Wl.instantiate w in
  let vmm = Monitor.create ~params mem in
  let flight = Flight.create ~dir () in
  let profile = Obs.Profile.create ~page_size:params.page_size () in
  let bridge = Obs.Bridge.create ~profile ~flight () in
  Obs.Bridge.attach bridge vmm;
  let inject =
    Fault.Inject.create
      { Fault.Inject.quiet with translator_fault_rate = 0.5 }
  in
  Fault.Inject.attach inject vmm;
  ignore (Monitor.run vmm ~entry ~fuel:(w.fuel * 2));
  Alcotest.(check bool) "faults fired" true (vmm.stats.translator_faults > 0);
  Alcotest.(check bool) "quarantined" true (vmm.stats.quarantines > 0);
  (* the ring's tail must name the faulting page... *)
  let fault_pages =
    List.filter_map
      (function
        | Monitor.Translator_fault { page; _ } -> Some page
        | _ -> None)
      (Flight.events flight)
  in
  Alcotest.(check bool) "tail names a faulting page" true (fault_pages <> []);
  (* ...and so must the dump on disk, along with the region graph *)
  match Flight.dumps flight with
  | [] -> Alcotest.fail "no crash dump written"
  | (reason, path) :: _ ->
    Alcotest.(check string) "reason" "quarantine" reason;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let field name = function
      | Obs.Json.Obj kvs -> List.assoc name kvs
      | _ -> Alcotest.failf "dump is not an object"
    in
    let d = Obs.Json.parse s in
    let tail =
      match field "events" d with
      | Obs.Json.Arr evs -> evs
      | _ -> Alcotest.fail "events is not an array"
    in
    let named n e =
      match field "name" e with Obs.Json.Str s -> s = n | _ -> false
    in
    Alcotest.(check bool) "tail has the quarantine trigger" true
      (List.exists (named "quarantine") tail);
    let pages_of name =
      List.filter_map
        (fun e ->
          if named name e then
            match field "page" e with Obs.Json.Int p -> Some p | _ -> None
          else None)
        tail
    in
    (* the dump snapshots the FIRST quarantine, so compare within the
       dump itself: the page the trigger quarantined must appear as a
       faulting page earlier in the same tail *)
    let dumped_fault_pages = pages_of "translator_fault" in
    Alcotest.(check bool) "dump tail names the faulting page" true
      (dumped_fault_pages <> []);
    Alcotest.(check bool) "quarantined page is a faulting page" true
      (List.exists
         (fun p -> List.mem p dumped_fault_pages)
         (pages_of "quarantine"));
    Alcotest.(check bool) "dump carries the region graph" true
      (contains ~needle:"\"regions\"" s)

let () =
  Alcotest.run "profile"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_codec_rejects_corruption;
          Alcotest.test_case "refuses future version" `Quick
            test_codec_refuses_future_version ] );
      ( "store",
        [ Alcotest.test_case "merge commutes" `Quick test_merge_commutes;
          Alcotest.test_case "accumulate is sum" `Quick
            test_accumulate_is_sum;
          Alcotest.test_case "open sweeps orphan tmp" `Quick
            test_open_sweeps_orphan_tmp ] );
      ( "regions",
        [ Alcotest.test_case "finds cycle" `Quick test_regions_finds_cycle;
          Alcotest.test_case "self loop" `Quick test_regions_self_loop;
          Alcotest.test_case "single node no edge" `Quick
            test_regions_single_node_no_edge;
          Alcotest.test_case "disjoint equal heat" `Quick
            test_regions_disjoint_equal_heat;
          Alcotest.test_case "threshold boundary" `Quick
            test_regions_threshold_boundary ] );
      ( "flight",
        [ Alcotest.test_case "ring wraps" `Quick test_flight_ring_wraps;
          Alcotest.test_case "dump first-wins" `Quick
            test_flight_dump_first_wins;
          Alcotest.test_case "fault leaves crash dump" `Quick
            test_fault_leaves_crash_dump ] ) ]
