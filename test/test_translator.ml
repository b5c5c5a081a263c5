(* Tests for the translator: instruction cracking, BO decomposition,
   and structural invariants of generated translations (resource bounds,
   branch budgets, commit placement) checked over random programs. *)

open Ppc
module Crack = Translator.Crack
module Params = Translator.Params
module Translate = Translator.Translate
module Vec = Translator.Vec
module T = Vliw.Tree

(* ------------------------------------------------------------------ *)
(* Crack                                                               *)

let prim_count i = List.length (Crack.crack 0x1000 i).prims

let test_crack_simple () =
  Alcotest.(check int) "addi one prim" 1 (prim_count (Addi (1, 2, 3)));
  Alcotest.(check int) "record adds a compare" 2
    (prim_count (Xo (Add, 1, 2, 3, true)));
  Alcotest.(check int) "andi. always records" 2 (prim_count (Andi (1, 2, 3)));
  Alcotest.(check int) "lwzu = load + update" 2 (prim_count (Lwzu (1, 2, 4)));
  Alcotest.(check int) "lmw r28 = 4 loads" 4 (prim_count (Lmw (28, 1, 0)));
  Alcotest.(check int) "stmw r20 = 12 stores" 12 (prim_count (Stmw (20, 1, 0)));
  Alcotest.(check int) "mtcrf 0xFF = 8 field sets" 8 (prim_count (Mtcrf (0xFF, 3)));
  Alcotest.(check int) "mtcrf 0x11 = 2 field sets" 2 (prim_count (Mtcrf (0x11, 3)))

let test_crack_branch_kinds () =
  let ctl i = (Crack.crack 0x1000 i).control in
  (match ctl (B (0x100, false, false)) with
  | Crack.Jump (Direct 0x1100) -> ()
  | _ -> Alcotest.fail "relative direct branch");
  (match ctl (B (0x2000, true, false)) with
  | Crack.Jump (Direct 0x2000) -> ()
  | _ -> Alcotest.fail "absolute branch");
  (match ctl (Bclr (20, 0, false)) with
  | Crack.Jump ViaLr -> ()
  | _ -> Alcotest.fail "blr");
  (match ctl (Bcctr (20, 0, false)) with
  | Crack.Jump ViaCtr -> ()
  | _ -> Alcotest.fail "bctr");
  (match ctl (Bc (12, 2, 8, false, false)) with
  | Crack.CondJump { sense = true; late_commit = None; _ } -> ()
  | _ -> Alcotest.fail "bt");
  (match ctl (Bc (4, 2, 8, false, false)) with
  | Crack.CondJump { sense = false; _ } -> ()
  | _ -> Alcotest.fail "bf");
  (* bdnz: decrement into a temp, ctr committed by the branch *)
  match ctl (Bc (16, 0, -8, false, false)) with
  | Crack.CondJump { late_commit = Some Crack.Ctr; sense = false; _ } -> ()
  | _ -> Alcotest.fail "bdnz"

let test_crack_link () =
  (* bl writes LR *)
  let { Crack.prims; control } = Crack.crack 0x1000 (B (0x40, false, true)) in
  Alcotest.(check int) "one link prim" 1 (List.length prims);
  (match List.hd prims with
  | Crack.PBinI { dst = Lr; imm; _ } -> Alcotest.(check int) "lr = pc+4" 0x1004 imm
  | _ -> Alcotest.fail "link prim shape");
  match control with
  | Crack.Jump (Direct 0x1040) -> ()
  | _ -> Alcotest.fail "bl target"

let test_crack_bclrl_snapshot () =
  (* indirect branches snapshot their masked target into TmpG 0; for
     bclrl this is also what preserves the pre-link LR *)
  let has_snapshot i =
    let { Crack.prims; _ } = Crack.crack 0x1000 i in
    List.exists
      (function
        | Crack.PRlwinm { dst = TmpG 0; a = Lr | Ctr; mb = 0; me = 29; _ } -> true
        | _ -> false)
      prims
  in
  Alcotest.(check bool) "bclrl snapshot" true (has_snapshot (Bclr (20, 0, true)));
  (* plain returns read LR directly; no snapshot overhead *)
  Alcotest.(check bool) "blr has no snapshot" false (has_snapshot (Bclr (20, 0, false)));
  Alcotest.(check bool) "bctr has no snapshot" false (has_snapshot (Bcctr (20, 0, false)))

let test_shape_serial () =
  let serial i =
    List.exists (fun p -> (Crack.shape p).serial) (Crack.crack 0 i).prims
  in
  Alcotest.(check bool) "mfspr srr0 serial" true (serial (Mfspr (1, SRR0)));
  Alcotest.(check bool) "mtmsr serial" true (serial (Mtmsr 1));
  Alcotest.(check bool) "mflr not serial" false (serial (Mfspr (1, LR)));
  Alcotest.(check bool) "mtctr not serial" false (serial (Mtspr (CTR, 1)))

(* ------------------------------------------------------------------ *)
(* Translation invariants                                              *)

let build_random_program seed =
  let rng = Random.State.make [| seed |] in
  fun a ->
    Asm.org a 0x1000;
    Asm.label a "main";
    for r = 1 to 8 do
      Asm.li32 a r ((r * 37) + 1)
    done;
    Asm.li32 a 20 0x8000;
    Asm.li a 21 4;
    Asm.mtctr a 21;
    Asm.label a "loop";
    for i = 0 to 25 do
      match Random.State.int rng 8 with
      | 0 -> Asm.add a (1 + (i mod 8)) (1 + ((i + 1) mod 8)) (1 + ((i + 2) mod 8))
      | 1 -> Asm.mullw a (1 + (i mod 8)) (1 + ((i + 3) mod 8)) (1 + (i mod 8))
      | 2 -> Asm.lwz a (1 + (i mod 8)) 20 (4 * (i mod 16))
      | 3 -> Asm.stw a (1 + (i mod 8)) 20 (4 * (i mod 16))
      | 4 ->
        let lbl = Printf.sprintf "s%d_%d" seed i in
        Asm.cmpwi a (1 + (i mod 8)) 50;
        Asm.bc a Asm.Lt lbl;
        Asm.addi a (1 + (i mod 8)) (1 + (i mod 8)) 1;
        Asm.label a lbl
      | 5 -> Asm.ins a (Srawi (1 + (i mod 8), 1 + ((i + 1) mod 8), 2, false))
      | 6 -> Asm.ins a (Xo (Addc, 1 + (i mod 8), 1 + ((i + 1) mod 8), 1 + ((i + 2) mod 8), false))
      | _ -> Asm.xor a (1 + (i mod 8)) (1 + ((i + 1) mod 8)) (1 + ((i + 2) mod 8))
    done;
    Asm.bdnz a "loop";
    Asm.li a 3 0;
    Asm.halt a ~scratch:31 3

(* recount a tree's resources from its structure *)
let rec count_node (n : T.node) =
  let alu, mem =
    List.fold_left
      (fun (a, m) (_, op) ->
        if Vliw.Op.is_mem op then (a, m + 1) else (a + 1, m))
      (0, 0) n.ops
  in
  match n.kind with
  | T.Open | Exit _ -> (alu, mem, 0)
  | Branch { taken; fall; _ } ->
    let a1, m1, b1 = count_node taken in
    let a2, m2, b2 = count_node fall in
    (alu + a1 + a2, mem + m1 + m2, 1 + b1 + b2)

let check_page_invariants (cfg : Vliw.Config.t) (page : Translate.xpage) =
  Vec.iter
    (fun (v : T.t) ->
      let alu, mem, br = count_node (T.root v) in
      Alcotest.(check int) "alu counter matches" v.alu alu;
      Alcotest.(check int) "mem counter matches" v.mem mem;
      Alcotest.(check int) "br counter matches" v.br br;
      Alcotest.(check bool)
        (Printf.sprintf "VLIW %d within resources (%d alu, %d mem, %d br)"
           v.id alu mem br)
        true
        (Vliw.Config.fits cfg ~alu ~mem ~br);
      (* no open tips survive translation *)
      let rec no_open (n : T.node) =
        match n.kind with
        | T.Open -> false
        | Exit _ -> true
        | Branch { taken; fall; _ } -> no_open taken && no_open fall
      in
      Alcotest.(check bool) "no open tips" true (no_open (T.root v)))
    page.vliws;
  (* every entry id is a valid marked entry *)
  Hashtbl.iter
    (fun _off id ->
      Alcotest.(check bool) "entry marked" true (Vec.get page.vliws id).T.is_entry)
    page.entries

let test_invariants_config cfg () =
  for seed = 1 to 10 do
    let mem = Mem.create 0x40000 in
    let a = Asm.create () in
    build_random_program seed a;
    let labels = Asm.assemble a mem in
    let params = { Params.default with config = cfg } in
    let tr = Translate.create params mem in
    let page, _ = Translate.entry tr (Hashtbl.find labels "main") in
    check_page_invariants cfg page
  done

let test_layout_addresses () =
  let mem = Mem.create 0x40000 in
  let a = Asm.create () in
  build_random_program 3 a;
  let labels = Asm.assemble a mem in
  let tr = Translate.create Params.default mem in
  let page, _ = Translate.entry tr (Hashtbl.find labels "main") in
  (* addresses are disjoint, sorted, and sizes match the model *)
  let prev_end = ref 0 in
  Vec.iteri
    (fun id v ->
      let addr = Vec.get page.addrs id and size = Vec.get page.sizes id in
      Alcotest.(check int) "size matches model" (Vliw.Layout.size v) size;
      Alcotest.(check bool) "addresses increase" true (addr >= !prev_end);
      prev_end := addr + size)
    page.vliws;
  Alcotest.(check bool) "based at VLIW_BASE region" true
    (Vec.get page.addrs 0
     >= Vliw.Layout.vliw_base + (page.base * Vliw.Layout.expansion))

let test_invalidate () =
  let mem = Mem.create 0x40000 in
  let a = Asm.create () in
  build_random_program 4 a;
  let labels = Asm.assemble a mem in
  let tr = Translate.create Params.default mem in
  let entry = Hashtbl.find labels "main" in
  let _ = Translate.entry tr entry in
  Alcotest.(check bool) "translated" true (Translate.translated tr entry);
  Translate.invalidate tr entry;
  Alcotest.(check bool) "dropped" false (Translate.translated tr entry);
  Alcotest.(check int) "counted" 1 tr.totals.invalidations;
  let _ = Translate.entry tr entry in
  Alcotest.(check bool) "retranslated" true (Translate.translated tr entry)

(* [translated] reads a byte per page of memory, the per-unit
   read-only bit; it must agree with the page table after every change
   to it — translation, in-place extension, invalidation, install —
   and past the end of memory, where it reads the table. *)
let test_read_only_bit () =
  let size = 0x40000 in
  let mem = Mem.create size in
  let a = Asm.create () in
  build_random_program 4 a;
  let labels = Asm.assemble a mem in
  let tr = Translate.create Params.default mem in
  let ps = Params.default.page_size in
  let far = size + (4 * ps) in
  let agree what =
    for i = 0 to (far / ps) + 2 do
      let addr = (i * ps) + 12 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: page %d" what i)
        (Hashtbl.mem tr.pages (Translate.page_base tr addr))
        (Translate.translated tr addr)
    done
  in
  agree "fresh";
  let entry = Hashtbl.find labels "main" in
  let page, _ = Translate.entry tr entry in
  agree "translated";
  let n = Vec.length page.vliws in
  let rec fresh addr = if Translate.has_entry tr addr then fresh (addr + 4) else addr in
  let page', _ = Translate.entry tr (fresh entry) in
  Alcotest.(check bool) "extended in place" true (page' == page && Vec.length page.vliws > n);
  agree "extended";
  Translate.invalidate tr entry;
  Alcotest.(check bool) "dropped" false (Translate.translated tr entry);
  agree "invalidated";
  Translate.install tr page;
  Alcotest.(check bool) "installed" true (Translate.translated tr entry);
  agree "installed";
  Translate.install tr { page with base = far };
  Alcotest.(check bool) "past memory" true (Translate.translated tr (far + 12));
  agree "installed past memory";
  Translate.invalidate tr far;
  Alcotest.(check bool) "dropped past memory" false (Translate.translated tr far);
  agree "invalidated past memory"

let test_join_limit_bounds_code () =
  (* higher join limits may only grow the translation *)
  let size k =
    let mem = Mem.create 0x40000 in
    let a = Asm.create () in
    build_random_program 5 a;
    let labels = Asm.assemble a mem in
    let tr = Translate.create { Params.default with join_limit = k } mem in
    let _ = Translate.entry tr (Hashtbl.find labels "main") in
    tr.totals.code_bytes
  in
  let s0 = size 0 and s2 = size 2 and s6 = size 6 in
  Alcotest.(check bool) "k=0 smallest" true (s0 <= s2);
  Alcotest.(check bool) "k grows code" true (s2 <= s6)

let test_store_forwarding () =
  (* a must-alias store/load pair: the load becomes a register copy *)
  let build fwd a =
    ignore fwd;
    Asm.org a 0x1000;
    Asm.label a "main";
    Asm.li32 a 20 0x8000;
    Asm.li a 5 1234;
    Asm.stw a 5 20 16;
    Asm.lwz a 6 20 16;   (* must-alias: same base gen, offset, width *)
    Asm.add a 3 6 5;
    Asm.halt a ~scratch:31 3
  in
  let count_loads params =
    let mem = Mem.create 0x40000 in
    let a = Asm.create () in
    build () a;
    let labels = Asm.assemble a mem in
    let tr = Translate.create params mem in
    let page, _ = Translate.entry tr (Hashtbl.find labels "main") in
    let loads = ref 0 in
    Vec.iter
      (fun v ->
        List.iter
          (fun (_, op) -> if Vliw.Op.is_load op then incr loads)
          (T.all_ops v))
      page.vliws;
    !loads
  in
  let with_fwd = count_loads Params.default in
  let without = count_loads { Params.default with store_forward = false } in
  Alcotest.(check bool) "forwarding removes the load" true (with_fwd < without)

let test_profile_probabilities () =
  (* a profile table overrides the static guesses *)
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl 0x1000 (90, 100);
  let p = { Params.default with profile = Some tbl } in
  Alcotest.(check (float 1e-9)) "profiled" 0.9
    (Translate.guess_prob p ~hint:false ~backward:false ~pc:0x1000);
  Alcotest.(check (float 1e-9)) "unprofiled backward" p.prob_backward
    (Translate.guess_prob p ~hint:false ~backward:true ~pc:0x2000);
  Alcotest.(check (float 1e-9)) "hint" p.prob_hint
    (Translate.guess_prob p ~hint:true ~backward:false ~pc:0x2000)

(* ------------------------------------------------------------------ *)
(* Byte-identity oracle                                                *)

(* Translation is a pure function of the page bytes, the entry points
   and the parameters, so the encoded images of a fixed corpus pin the
   scheduler's output exactly.  The digest below covers:
   - every page image the VMM translates (or extends) while running
     each registry workload and the S/390 experiment program under the
     defaults;
   - the entry page of the first 128 seed-1 fuzz programs;
   - the tier-2 region images live at the end of c_sieve's and
     compress's runs, lazy extensions included, so the boundary at
     which a region goes live can reorder them.
   A change to the scheduler's data structures must leave it unchanged;
   a change that means to alter translations must re-record it. *)

let digest_corpus ?(params = Params.default) ~fuzz_pages add =
  let run_vmm ?frontend mem ~entry ~fuel =
    let vmm = Vmm.Monitor.create ~params ?frontend mem in
    vmm.install_hook <- Some add;
    ignore (Vmm.Monitor.run vmm ~entry ~fuel)
  in
  List.iter
    (fun (w : Workloads.Wl.t) ->
      let mem, entry = Workloads.Wl.instantiate w in
      run_vmm mem ~entry ~fuel:(2 * w.fuel))
    Workloads.Registry.all;
  (let mem = Mem.create 0x40000 in
   let a = S390.Asm.create () in
   Stats.Experiments.s390_program a;
   let labels = S390.Asm.assemble a mem in
   run_vmm ~frontend:S390.Frontend.s390 mem
     ~entry:(S390.Asm.resolve labels "main") ~fuel:4_000_000);
  for index = 0 to fuzz_pages - 1 do
    let rng = Random.State.make [| 1; index; 0 |] in
    let slots = Fault.Fuzz.gen_slots rng ~insns:96 ~allow_raw:true in
    let w = Fault.Fuzz.wl_of ~seed:1 ~index ~fuel:20_000 slots in
    let mem, entry = Workloads.Wl.instantiate w in
    let tr = Translate.create params mem in
    add (fst (Translate.entry tr entry))
  done

(* The page image the digests hash: the translation cache's version 2
   page layout, frozen here so that the digests pin translations, not
   the cache format.  Each tree is its header fields followed directly
   by its root. *)
let page_image (p : Translate.xpage) =
  let module C = Tcache.Codec in
  let b = Buffer.create 4096 in
  let v = C.put_vint b in
  v p.base; v p.psize; v p.code_bytes; v p.next_addr; v p.insns_scheduled;
  v (Vec.length p.vliws);
  Vec.iteri
    (fun i (t : T.t) ->
      v t.id; v t.precise_entry; C.put_bool b t.is_entry; v t.alu; v t.mem;
      v t.br; v t.free_gprs; v t.free_crs;
      C.put_node b (T.root t);
      v (Vec.get p.addrs i);
      v (Vec.get p.sizes i))
    p.vliws;
  let entries =
    Hashtbl.fold (fun off id acc -> (off, id) :: acc) p.entries []
    |> List.sort compare
  in
  v (List.length entries);
  List.iter (fun (off, id) -> v off; v id) entries;
  Buffer.contents b

let digest_of f =
  let acc = Buffer.create 4096 in
  f (fun p -> Buffer.add_string acc (Digest.string (page_image p)));
  Digest.to_hex (Digest.string (Buffer.contents acc))

let oracle_digest () =
  digest_of @@ fun add ->
  digest_corpus ~fuzz_pages:128 add;
  List.iter
    (fun name ->
      let w = Workloads.Registry.by_name name in
      let mem, entry = Workloads.Wl.instantiate w in
      let vmm = Vmm.Monitor.create mem in
      ignore (Obs.Tier.attach vmm);
      ignore (Vmm.Monitor.run vmm ~entry ~fuel:(2 * w.fuel));
      Hashtbl.fold (fun _ (r : Vmm.Monitor.region) acc -> r :: acc) vmm.regions []
      |> List.sort_uniq (fun (a : Vmm.Monitor.region) b -> compare a.r_id b.r_id)
      |> List.iter (fun (r : Vmm.Monitor.region) ->
             Hashtbl.iter (fun _ p -> add p) r.r_tr.pages))
    [ "c_sieve"; "compress" ]

let test_byte_identity () =
  Alcotest.(check string) "translation digest"
    "1d3598d858f8dca98aab1c4e95cab686" (oracle_digest ())

(* The same corpus (64 fuzz pages) under the parameter switches the
   defaults leave off, so the rarely taken scheduler paths — guarded
   indirect inlining, in-order-only placement, single-path scheduling,
   small pages, a tiny machine, the traditional compiler's whole-memory
   unit — are pinned too. *)
let variant_params =
  let d = Params.default in
  [ ("guarded", { d with guard_indirect = true; adaptive_alias = true });
    ("no rename", { d with rename = false });
    ("one path", { d with multipath = false });
    ("no speculation", { d with load_spec = false; store_forward = false });
    ("small pages", { d with page_size = 512 });
    ("tiny machine", { d with config = Vliw.Config.figure_5_1.(0) });
    ("traditional", Params.traditional ()) ]

let test_byte_identity_variants () =
  let got =
    List.map
      (fun (name, params) ->
        (name, digest_of (digest_corpus ~params ~fuzz_pages:64)))
      variant_params
  in
  Alcotest.(check (list (pair string string))) "variant digests"
    [ ("guarded", "1121af573e763b02f5c1f5c8b17ab170");
      ("no rename", "140f3ca0c79e48f5fb097d0ae0cc8010");
      ("one path", "f880269c9720212bf86cd493130a78c0");
      ("no speculation", "602caa5d4e09277cfcdf06e50ce26f68");
      ("small pages", "d5d1019b880efd165285b3042dd67358");
      ("tiny machine", "447165f409a908ae495c37cf0bd56f17");
      ("traditional", "332ca388d5d564231d7110a8d83b0ba4") ]
    got

let () =
  Alcotest.run "translator"
    [ ( "crack",
        [ Alcotest.test_case "prim counts" `Quick test_crack_simple;
          Alcotest.test_case "branch kinds" `Quick test_crack_branch_kinds;
          Alcotest.test_case "link register" `Quick test_crack_link;
          Alcotest.test_case "bclrl snapshot" `Quick test_crack_bclrl_snapshot;
          Alcotest.test_case "serial shapes" `Quick test_shape_serial ] );
      ( "invariants",
        [ Alcotest.test_case "24-issue" `Quick
            (test_invariants_config Vliw.Config.default);
          Alcotest.test_case "8-issue" `Quick
            (test_invariants_config Vliw.Config.eight_issue);
          Alcotest.test_case "4-issue minimal" `Quick
            (test_invariants_config Vliw.Config.figure_5_1.(0));
          Alcotest.test_case "layout addresses" `Quick test_layout_addresses;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "read-only bit" `Quick test_read_only_bit;
          Alcotest.test_case "join limit vs code size" `Quick
            test_join_limit_bounds_code;
          Alcotest.test_case "profile probabilities" `Quick
            test_profile_probabilities;
          Alcotest.test_case "store-to-load forwarding" `Quick
            test_store_forwarding ] );
      ( "oracle",
        [ Alcotest.test_case "byte-identical translations" `Quick
            test_byte_identity;
          Alcotest.test_case "byte-identical under variant parameters" `Quick
            test_byte_identity_variants ] ) ]
