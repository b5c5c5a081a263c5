(* Persistent translation cache: cold start vs warm start.

   Runs the same workload twice against one cache directory.  The cold
   run translates every page it touches and persists each translation;
   the warm run finds them all by content address and installs the
   decoded trees without invoking the translator once.  Both runs are
   verified instruction-for-instruction against the reference
   interpreter by [Vmm.Run.run], so "the warm run is correct" is not an
   assertion here — it is a precondition of the harness returning.

     dune exec examples/tcache_demo.exe *)

let fresh_dir () =
  let f = Filename.temp_file "daisy_tcache" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let () =
  let w = Workloads.Registry.by_name "wc" in
  let tcache_dir = fresh_dir () in
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL: %s\n" what
    end
  in

  let cold = Vmm.Run.run ~tcache_dir w in
  let warm = Vmm.Run.run ~tcache_dir w in

  let line label (r : Vmm.Run.result) =
    Printf.printf
      "%-5s exit=%-6s pages_translated=%-3d insns_translated=%-6d \
       interp_insns=%-6d tcache: %d hits / %d misses / %d persists\n"
      label
      (match r.exit_code with Some c -> string_of_int c | None -> "fuel")
      r.pages_translated r.insns_translated r.stats.interp_insns
      r.stats.tcache_hits r.stats.tcache_misses r.stats.tcache_persists
  in
  Printf.printf "workload %s, cache at %s\n\n" w.name tcache_dir;
  line "cold" cold;
  line "warm" warm;
  Printf.printf
    "\ndelta: pages_translated %d -> %d, insns_translated %d -> %d\n"
    cold.pages_translated warm.pages_translated cold.insns_translated
    warm.insns_translated;

  (* the warm start did no translation work at all... *)
  check "warm run translated 0 pages" (warm.pages_translated = 0);
  check "warm run scheduled 0 instructions" (warm.insns_translated = 0);
  check "warm run hit the cache" (warm.stats.tcache_hits > 0);
  check "cold run persisted entries" (cold.stats.tcache_persists > 0);

  (* ...and reached the identical architected final state.  Run.run
     already verified each run against the reference interpreter
     (registers, memory, console output); equal exits plus equal
     dynamic behaviour tie the two runs to each other as well. *)
  check "identical exit code" (cold.exit_code = warm.exit_code);
  check "identical VLIWs executed" (cold.stats.vliws = warm.stats.vliws);
  check "identical cycles" (cold.cycles_infinite = warm.cycles_infinite);
  check "identical ILP" (cold.ilp_inf = warm.ilp_inf);

  ignore (Tcache.Store.clear_dir tcache_dir);
  (try Sys.rmdir tcache_dir with Sys_error _ -> ());
  if !failures = 0 then print_string "\nall checks passed\n"
  else exit 1
