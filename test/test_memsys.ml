(* Tests for the memory-system models: set-associative caches (against
   a naive reference model), multi-level hierarchies and the TLB. *)

open Memsys

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_direct_mapped_conflict () =
  (* two lines mapping to the same set in a direct-mapped cache evict
     each other *)
  let c = Cache.create ~name:"t" ~size:1024 ~assoc:1 ~line:64 in
  Alcotest.(check bool) "cold miss" false (Cache.touch c 0);
  Alcotest.(check bool) "hit" true (Cache.touch c 0);
  Alcotest.(check bool) "conflict miss" false (Cache.touch c 1024);
  Alcotest.(check bool) "evicted" false (Cache.touch c 0)

let test_assoc_no_conflict () =
  let c = Cache.create ~name:"t" ~size:2048 ~assoc:2 ~line:64 in
  ignore (Cache.touch c 0);
  ignore (Cache.touch c 1024);
  Alcotest.(check bool) "way 1 retained" true (Cache.touch c 0);
  Alcotest.(check bool) "way 2 retained" true (Cache.touch c 1024)

let test_lru_eviction () =
  let c = Cache.create ~name:"t" ~size:2048 ~assoc:2 ~line:64 in
  ignore (Cache.touch c 0);       (* set 0, way A *)
  ignore (Cache.touch c 1024);    (* set 0, way B *)
  ignore (Cache.touch c 0);       (* A is now MRU *)
  ignore (Cache.touch c 2048);    (* evicts B (LRU) *)
  Alcotest.(check bool) "MRU kept" true (Cache.touch c 0);
  Alcotest.(check bool) "LRU evicted" false (Cache.touch c 1024)

let test_touch_range () =
  let c = Cache.create ~name:"t" ~size:4096 ~assoc:4 ~line:64 in
  Alcotest.(check bool) "spanning access misses" false (Cache.touch_range c 60 8);
  Alcotest.(check bool) "both lines present" true (Cache.touch_range c 60 8);
  Alcotest.(check int) "two misses recorded" 2 c.misses

let test_miss_rate_and_reset () =
  let c = Cache.create ~name:"t" ~size:1024 ~assoc:1 ~line:64 in
  ignore (Cache.touch c 0);
  ignore (Cache.touch c 0);
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Cache.miss_rate c);
  Cache.reset c;
  Alcotest.(check int) "reset" 0 c.accesses;
  Alcotest.(check bool) "cold again" false (Cache.touch c 0)

(* reference model: per set, a most-recently-used list of line numbers *)
let prop_cache_vs_reference =
  let gen = QCheck.Gen.(list_size (int_range 1 400) (int_bound 8191)) in
  QCheck.Test.make ~name:"cache agrees with reference LRU model" ~count:200
    (QCheck.make gen) (fun addrs ->
      let line = 16 and assoc = 2 and sets = 8 in
      let c = Cache.create ~name:"t" ~size:(line * assoc * sets) ~assoc ~line in
      let ref_sets = Array.make sets [] in
      List.for_all
        (fun addr ->
          let ln = addr / line in
          let s = ln mod sets in
          let hit_ref = List.mem ln ref_sets.(s) in
          let mru = ln :: List.filter (( <> ) ln) ref_sets.(s) in
          ref_sets.(s) <- List.filteri (fun i _ -> i < assoc) mru;
          let hit = Cache.touch c addr in
          hit = hit_ref)
        addrs)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let test_hierarchy_latencies () =
  let h = Hierarchy.paper_24issue () in
  let stall, l1 = Hierarchy.access h D 0x1000 4 in
  Alcotest.(check int) "full miss costs memory latency" 88 stall;
  Alcotest.(check bool) "not an L1 hit" false l1;
  let stall, l1 = Hierarchy.access h D 0x1000 4 in
  Alcotest.(check int) "L1 hit free" 0 stall;
  Alcotest.(check bool) "L1 hit" true l1;
  (* evict from tiny L1?  use the 8-issue hierarchy's 4K L1 *)
  let h8 = Hierarchy.paper_8issue () in
  ignore (Hierarchy.access h8 D 0 4);
  (* conflict out of the 4K direct... L1D is 4-way; fill the set *)
  ignore (Hierarchy.access h8 D 4096 4);
  ignore (Hierarchy.access h8 D 8192 4);
  ignore (Hierarchy.access h8 D 12288 4);
  ignore (Hierarchy.access h8 D 16384 4);
  let stall, _ = Hierarchy.access h8 D 0 4 in
  Alcotest.(check int) "L2 hit costs its latency" 4 stall

let test_hierarchy_i_d_split () =
  let h = Hierarchy.paper_24issue () in
  ignore (Hierarchy.access h I 0x4000 4);
  let stall, _ = Hierarchy.access h D 0x4000 4 in
  (* the D side missed L1 but hits the shared joint cache *)
  Alcotest.(check int) "joint hit after I fill" 12 stall

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)

let test_tlb () =
  let t = Tlb.create ~entries:16 ~assoc:4 () in
  Alcotest.(check bool) "cold" false (Tlb.touch t 5);
  Alcotest.(check bool) "hit" true (Tlb.touch t 5);
  Tlb.flush t;
  Alcotest.(check bool) "flushed" false (Tlb.touch t 5);
  Alcotest.(check (float 1e-9)) "rate" (2.0 /. 3.0) (Tlb.miss_rate t)

let test_tlb_capacity () =
  let t = Tlb.create ~entries:8 ~assoc:2 () in
  (* 4 sets x 2 ways; vpn k maps to set k mod 4 *)
  ignore (Tlb.touch t 0);
  ignore (Tlb.touch t 4);
  ignore (Tlb.touch t 8);  (* evicts vpn 0 (LRU in set 0) *)
  Alcotest.(check bool) "way kept" true (Tlb.touch t 4);
  Alcotest.(check bool) "LRU evicted" false (Tlb.touch t 0)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* The ITLB is probed on every cross-page dispatch and a cache on every
   access of a finite-cache run: a probe that hits allocates nothing. *)
let test_probes_allocate_nothing () =
  let c = Cache.create ~name:"t" ~size:4096 ~assoc:4 ~line:64 in
  let tlb = Tlb.create ~entries:64 ~assoc:4 () in
  ignore (Cache.touch c 0x1040);
  ignore (Tlb.touch tlb 7);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Cache.touch c 0x1040);
    ignore (Tlb.touch tlb 7)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0);
  Alcotest.(check (pair int int)) "all hit" (1, 1) (c.misses, tlb.misses)

let () =
  Alcotest.run "memsys"
    [ ( "cache",
        [ Alcotest.test_case "direct-mapped conflicts" `Quick test_direct_mapped_conflict;
          Alcotest.test_case "associativity" `Quick test_assoc_no_conflict;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "range touch" `Quick test_touch_range;
          Alcotest.test_case "miss rate + reset" `Quick test_miss_rate_and_reset;
          QCheck_alcotest.to_alcotest prop_cache_vs_reference ] );
      ( "hierarchy",
        [ Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "I/D split + joint" `Quick test_hierarchy_i_d_split ] );
      ( "tlb",
        [ Alcotest.test_case "basic" `Quick test_tlb;
          Alcotest.test_case "capacity" `Quick test_tlb_capacity ] );
      ( "allocation",
        [ Alcotest.test_case "warm probes allocate nothing" `Quick
            test_probes_allocate_nothing ] ) ]
