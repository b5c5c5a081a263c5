(* One entry point per table and figure of the paper's Chapter 5 (plus
   the Chapter 6 oracle study).  Each prints the same rows/series the
   paper reports, computed from our simulated runs; EXPERIMENTS.md
   records the paper-vs-measured comparison.

   Results are memoised: several tables share the same underlying run
   (e.g. the big-machine infinite-cache run feeds Tables 5.1/5.6/5.7). *)

module Params = Translator.Params
module Run = Vmm.Run
module Cfg = Vliw.Config

let workloads () = Workloads.Registry.all

let memo : (string, Run.result) Hashtbl.t = Hashtbl.create 64

let run_memo key ?params ?hierarchy (w : Workloads.Wl.t) =
  let k = w.name ^ "/" ^ key in
  match Hashtbl.find_opt memo k with
  | Some r -> r
  | None ->
    let r = Run.run ?params ?hierarchy w in
    Hashtbl.replace memo k r;
    r

(** Big-machine run, infinite caches. *)
let inf w = run_memo "inf" w

(** Big-machine run, the paper's 24-issue cache hierarchy. *)
let fin w = run_memo "fin" ~hierarchy:(Memsys.Hierarchy.paper_24issue ()) w

let eight_inf w =
  run_memo "8inf" ~params:{ Params.default with config = Cfg.eight_issue } w

let eight_fin w =
  run_memo "8fin"
    ~params:{ Params.default with config = Cfg.eight_issue }
    ~hierarchy:(Memsys.Hierarchy.paper_8issue ()) w

(* ------------------------------------------------------------------ *)

(** Table 5.1: pathlength reduction and code explosion. *)
let table_5_1 () =
  let rows =
    List.map
      (fun w ->
        let r = inf w in
        let pages = max 1 r.pages_translated in
        [ r.name; Table.f1 r.ilp_inf;
          Printf.sprintf "%dK"
            ((r.code_bytes / pages) / 1024) ])
      (workloads ())
  in
  let m = Table.mean (List.map (fun w -> (inf w).Run.ilp_inf) (workloads ())) in
  Table.render
    ~title:
      "Table 5.1: Pathlength reduction and code explosion (PowerPC -> VLIW)"
    ~header:[ "Program"; "PowerPC ins/VLIW"; "Avg translated page" ]
    (rows @ [ [ "MEAN"; Table.f1 m; "" ] ])

(** Figure 5.1: ILP for the ten machine configurations. *)
let figure_5_1 () =
  let configs = Array.to_list Cfg.figure_5_1 in
  let header = "Program" :: List.map (fun (c : Cfg.t) -> c.name) configs in
  let rows =
    List.map
      (fun w ->
        (inf w).Run.name
        :: List.map
             (fun (c : Cfg.t) ->
               let r =
                 run_memo ("cfg-" ^ c.name)
                   ~params:{ Params.default with config = c } w
               in
               Table.f2 r.ilp_inf)
             configs)
      (workloads ())
  in
  let means =
    "MEAN"
    :: List.map
         (fun (c : Cfg.t) ->
           Table.f2
             (Table.mean
                (List.map
                   (fun w ->
                     (run_memo ("cfg-" ^ c.name)
                        ~params:{ Params.default with config = c } w)
                       .Run.ilp_inf)
                   (workloads ()))))
         configs
  in
  Table.render
    ~title:
      "Figure 5.1: Pathlength reductions for different machine \
       configurations (ins/cycle)"
    ~header (rows @ [ means ])

(** Table 5.2: DAISY vs the traditional VLIW compiler (user code). *)
let table_5_2 () =
  let subset = [ "compress"; "lex"; "fgrep"; "sort"; "c_sieve" ] in
  let ws = List.map Workloads.Registry.by_name subset in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        let d = inf w in
        let t = run_memo "trad" ~params:(Baseline.Tradcomp.params w) w in
        [ w.name; Table.f1 d.ilp_inf; Table.f1 t.ilp_inf ])
      ws
  in
  let dm = Table.mean (List.map (fun w -> (inf w).Run.ilp_inf) ws) in
  let tm =
    Table.mean
      (List.map
         (fun w ->
           (run_memo "trad" ~params:(Baseline.Tradcomp.params w) w).Run.ilp_inf)
         ws)
  in
  Table.render
    ~title:"Table 5.2: ILP from DAISY vs a traditional VLIW compiler"
    ~header:[ "Program"; "DAISY ILP"; "Trad ILP" ]
    (rows @ [ [ "MEAN"; Table.f1 dm; Table.f1 tm ] ])

(** Table 5.3: finite caches, and the in-order base machine. *)
let table_5_3 () =
  let rows =
    List.map
      (fun w ->
        let i = inf w and f = fin w in
        let o = Baseline.Inorder.run w in
        [ i.Run.name; Table.f1 i.ilp_inf; Table.f1 f.ilp_fin; Table.f1 o.ipc ])
      (workloads ())
  in
  let m g = Table.mean (List.map g (workloads ())) in
  Table.render
    ~title:
      "Table 5.3: ILP with infinite/finite caches vs in-order base machine \
       (604E-class)"
    ~header:[ "Program"; "Inf Cache"; "Finite Cache"; "In-order base" ]
    (rows
    @ [ [ "MEAN";
          Table.f1 (m (fun w -> (inf w).Run.ilp_inf));
          Table.f1 (m (fun w -> (fin w).Run.ilp_fin));
          Table.f1 (m (fun w -> (Baseline.Inorder.run w).ipc)) ] ])

(** Table 5.4: loads/stores per VLIW and VLIWs between misses. *)
let table_5_4 () =
  let rows =
    List.map
      (fun w ->
        let r = fin w in
        let s = r.stats in
        let per v = float_of_int v /. float_of_int (max 1 s.vliws) in
        let between m =
          if m = 0 then "-" else Table.f1 (float_of_int s.vliws /. float_of_int m)
        in
        [ r.name; Table.f2 (per s.loads); Table.f2 (per s.stores);
          between s.load_misses; between s.store_misses;
          between (s.load_misses + s.store_misses) ])
      (workloads ())
  in
  Table.render
    ~title:
      "Table 5.4: Load, store, first-level cache characteristics \
       (VLIWs between misses)"
    ~header:
      [ "Program"; "Loads/VLIW"; "Stores/VLIW"; "Ld miss"; "St miss"; "Mem miss" ]
    rows

(** Figure 5.2: cache miss rates. *)
let figure_5_2 () =
  let rows =
    List.map
      (fun w ->
        let r = fin w in
        [ r.name; Table.pct r.miss_l0d; Table.pct r.miss_l0i;
          Table.pct r.miss_joint ])
      (workloads ())
  in
  Table.render
    ~title:"Figure 5.2: Cache miss rates (first-level D, first-level I, joint)"
    ~header:[ "Program"; "L0 DCache"; "L0 ICache"; "L1 JCache" ]
    rows

(** Table 5.5: the 8-issue machine. *)
let table_5_5 () =
  let rows =
    List.map
      (fun w ->
        let i = eight_inf w and f = eight_fin w in
        [ i.Run.name; Table.f1 i.ilp_inf; Table.f1 f.ilp_fin ])
      (workloads ())
  in
  let m g = Table.mean (List.map g (workloads ())) in
  Table.render ~title:"Table 5.5: Performance of the 8-issue machine"
    ~header:[ "Program"; "Inf Cache"; "Finite Cache" ]
    (rows
    @ [ [ "MEAN";
          Table.f1 (m (fun w -> (eight_inf w).Run.ilp_inf));
          Table.f1 (m (fun w -> (eight_fin w).Run.ilp_fin)) ] ])

(** Table 5.6: cross-page branches by type. *)
let table_5_6 () =
  let rows =
    List.map
      (fun w ->
        let r = inf w in
        let s = r.stats in
        let total = s.cross_direct + s.cross_lr + s.cross_ctr in
        [ r.name; Table.big s.cross_direct; Table.big s.cross_lr;
          Table.big s.cross_ctr; Table.big total;
          (if total = 0 then "-"
           else Table.f1 (float_of_int s.vliws /. float_of_int total)) ])
      (workloads ())
  in
  Table.render ~title:"Table 5.6: Cross-page branches by type"
    ~header:[ "Program"; "Direct"; "via Linkreg"; "via Counter"; "Total";
              "VLIWs/branch" ]
    rows

(** Table 5.7: run-time load/store aliasing. *)
let table_5_7 () =
  let rows =
    List.map
      (fun w ->
        let r = inf w in
        [ r.name; Table.big r.stats.aliases; Table.big r.stats.vliws;
          (if r.stats.aliases = 0 then "-"
           else
             Table.big (r.stats.vliws / r.stats.aliases)) ])
      (workloads ())
  in
  Table.render ~title:"Table 5.7: VLIWs per run-time load-store alias"
    ~header:[ "Program"; "Runtime aliases"; "VLIWs exec"; "VLIWs/alias" ]
    rows

let page_sizes = [ 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]

let page_run size w =
  run_memo
    (Printf.sprintf "page-%d" size)
    ~params:{ Params.default with page_size = size }
    w

(** Figure 5.3: ILP versus translation page size. *)
let figure_5_3 () =
  let header = "Program" :: List.map string_of_int page_sizes in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        w.name
        :: List.map (fun s -> Table.f2 (page_run s w).Run.ilp_inf) page_sizes)
      (workloads ())
  in
  Table.render ~title:"Figure 5.3: ILP versus input page size (bytes)"
    ~header rows

(** Figure 5.4: total translated code size versus page size. *)
let figure_5_4 () =
  let header = "Program" :: List.map string_of_int page_sizes in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        w.name
        :: List.map
             (fun s -> Table.big (page_run s w).Run.code_bytes)
             page_sizes)
      (workloads ())
  in
  Table.render
    ~title:"Figure 5.4: Total VLIW code size (bytes) versus input page size"
    ~header rows

(** Figure 5.5: direct cross-page jumps versus page size. *)
let figure_5_5 () =
  let header = "Program" :: List.map string_of_int page_sizes in
  let rows =
    List.map
      (fun (w : Workloads.Wl.t) ->
        w.name
        :: List.map
             (fun s -> Table.big (page_run s w).Run.stats.cross_direct)
             page_sizes)
      (workloads ())
  in
  Table.render
    ~title:"Figure 5.5: Direct cross-page jumps versus input page size"
    ~header rows

(** Table 5.8: the analytic compile-overhead model of Section 5.1. *)
let table_5_8 () =
  let i = 1024.0 in
  let pr = 1.5 and pv = 4.0 and pc = 4.0 in
  let ghz = 1.0e9 in
  let total_ins = 8.0e9 in
  let rows =
    List.map
      (fun (n_compile, pages) ->
        let reuse = total_ins /. (float_of_int pages *. i) in
        let t_page = float_of_int n_compile *. i /. pc in
        let t_base = total_ins /. pr /. ghz in
        let t_vliw =
          (total_ins /. pv /. ghz) +. (float_of_int pages *. t_page /. ghz)
        in
        [ string_of_int n_compile; string_of_int pages;
          Table.big (int_of_float reuse);
          Printf.sprintf "%+.0f%%" (100.0 *. (t_vliw -. t_base) /. t_base) ])
      [ (4000, 200); (4000, 1000); (4000, 10000);
        (1000, 200); (1000, 1000); (1000, 10000) ]
  in
  Table.render
    ~title:
      "Table 5.8: Overhead of dynamic compilation (analytic model, \
       Eq. 5.1-5.3)"
    ~header:[ "Ins to compile 1 ins"; "Unique pages"; "Reuse factor";
              "Time change" ]
    rows;
  (* the break-even derivations of Section 5.1 *)
  let breakeven ~n ~pc ~pr ~pv =
    (* t = r * i * (1/PR - 1/PV);  t = n * i / pc  =>  r *)
    let t = float_of_int n *. i /. pc in
    t /. (i *. ((1.0 /. pr) -. (1.0 /. pv)))
  in
  Printf.printf
    "\nBreak-even reuse (realistic: 3900 ins/ins, PR=1.5, PV=4): r = %.0f \
     (paper: 2340)\n"
    (breakeven ~n:3900 ~pc:4.0 ~pr:1.5 ~pv:4.0);
  Printf.printf
    "Break-even reuse (optimistic: 200 ins/ins, PR=1.5, PV=inf): r = %.0f \
     (paper: 60)\n"
    (let t = 200.0 *. i /. 5.0 in
     t /. (i /. 1.5))

(** Table 5.9: reuse factors for our workload suite. *)
let table_5_9 () =
  let rows =
    List.map
      (fun w ->
        let r = inf w in
        [ r.name; Table.big r.base_insns; Table.big r.static_insns;
          Table.big (r.base_insns / max 1 r.static_insns) ])
      (workloads ())
  in
  Table.render
    ~title:
      "Table 5.9: Reuse factors (dynamic instructions / static instructions \
       touched)"
    ~header:[ "Program"; "Dynamic ins"; "Static ins"; "Reuse factor" ]
    rows

(** Chapter 6: oracle parallelism vs DAISY. *)
let oracle () =
  let rows =
    List.map
      (fun w ->
        let d = inf w in
        let o = Baseline.Oracle.run w in
        [ d.Run.name; Table.f1 d.ilp_inf; Table.f1 o.ilp ])
      (workloads ())
  in
  Table.render
    ~title:
      "Chapter 6: Oracle parallelism (perfect prediction/disambiguation, \
       unlimited resources) vs DAISY"
    ~header:[ "Program"; "DAISY ILP"; "Oracle ILP" ]
    rows

(** DESIGN.md ablations: each translator feature on/off, mean ILP. *)
let ablations () =
  let variants =
    [ ("baseline (all on)", Params.default);
      ("no renaming", { Params.default with rename = false });
      ("no load speculation", { Params.default with load_spec = false });
      ("no store forwarding", { Params.default with store_forward = false });
      ("single path", { Params.default with multipath = false });
      ("window 24", { Params.default with window = 24 });
      ("join limit 0", { Params.default with join_limit = 0 });
      ("guarded indirect inlining", { Params.default with guard_indirect = true });
      ("adaptive alias response", { Params.default with adaptive_alias = true }) ]
  in
  let rows =
    List.map
      (fun (name, params) ->
        let ilps =
          List.map
            (fun w -> (run_memo ("abl-" ^ name) ~params w).Run.ilp_inf)
            (workloads ())
        in
        let aliases =
          List.fold_left
            (fun acc w ->
              acc + (run_memo ("abl-" ^ name) ~params w).Run.stats.aliases)
            0 (workloads ())
        in
        [ name; Table.f2 (Table.mean ilps); Table.big aliases ])
      variants
  in
  Table.render ~title:"Ablations: translator features (mean ILP, 24-issue)"
    ~header:[ "Variant"; "Mean ILP"; "Total aliases" ]
    rows

(** The S/390 program of the retargetability experiment: seed a 128-byte
    buffer, then 200 rounds of copy, scan and checksum through a
    subroutine; halts through the MMIO word at 0x100. *)
let s390_program a =
  let module A = S390.Asm in
  A.org a 0x100;
  A.word a Ppc.Mem.mmio_halt;
  A.org a 0x800;
  A.label a "main";
  A.set_base a "base";
  A.la a 10 0x200;
  A.ins a (SLL (10, 4));
  (* seed 128 bytes *)
  A.la a 5 128;
  A.la a 7 0;
  A.label a "seed";
  A.lr a 8 7;
  A.ins a (SLL (8, 3));
  A.ins a (RX (STC, 8, 7, 10, 0));
  A.la a 9 1;
  A.ar a 7 9;
  A.bct a 5 "seed";
  (* 200 outer iterations: copy, scan, checksum *)
  A.la a 11 200;
  A.la a 2 0;
  A.label a "outer";
  A.ins a (MVC (11, 256, 10, 0, 10));
  A.la a 5 32;
  A.la a 7 0;
  A.label a "sum";
  A.ins a (RX (IC, 8, 7, 10, 0));
  A.ar a 2 8;
  A.la a 9 1;
  A.ar a 7 9;
  A.bct a 5 "sum";
  A.bal a 14 "mix";
  A.bct a 11 "outer";
  A.ins a (RX (L, 3, 0, 0, 0x100));
  A.ins a (RX (ST_, 2, 0, 3, 0));
  A.label a "mix";
  A.ins a (SRL (2, 1));
  A.la a 9 7;
  A.ar a 2 9;
  A.br a 14

(** Retargetability (Section 2.2 / Appendix E): the same machinery runs
    an S/390 binary; reports ILP with and without the Chapter 6 guarded
    inlining of its register-indirect branches. *)
let s390_retarget () =
  let module A = S390.Asm in
  let measure params =
    let mem = Ppc.Mem.create 0x40000 in
    let a = A.create () in
    s390_program a;
    let labels = A.assemble a mem in
    let st0 = Ppc.Machine.create () in
    st0.pc <- A.resolve labels "main";
    let it = S390.Interp.create st0 mem in
    let rcode = S390.Interp.run it ~fuel:2_000_000 in
    let mem2 = Ppc.Mem.create 0x40000 in
    let a2 = A.create () in
    s390_program a2;
    let labels2 = A.assemble a2 mem2 in
    let vmm = Vmm.Monitor.create ~params ~frontend:S390.Frontend.s390 mem2 in
    let dcode =
      Vmm.Monitor.run vmm ~entry:(A.resolve labels2 "main") ~fuel:4_000_000
    in
    assert (rcode = dcode && Ppc.Machine.equal st0 vmm.st.m);
    ( float_of_int it.icount /. float_of_int (max 1 (vmm.stats.vliws + vmm.stats.interp_insns)),
      vmm.stats.cross_gpr,
      it.icount )
  in
  let base_ilp, base_x, insns = measure Params.default in
  let g_ilp, g_x, _ =
    measure { Params.default with guard_indirect = true }
  in
  Table.render
    ~title:
      "Retargetability: an S/390 program through the same translator/VMM        (Appendix E)"
    ~header:[ "Variant"; "ILP"; "Reg-indirect cross-page"; "S/390 ins" ]
    [ [ "plain"; Table.f2 base_ilp; Table.big base_x; Table.big insns ];
      [ "guarded inlining (Ch. 6)"; Table.f2 g_ilp; Table.big g_x; "" ] ];
  print_endline
    "(S/390 ILP is dominated by its decrement-and-branch back edges,";
  print_endline
    " which are register-indirect and deliberately not guarded -- the";
  print_endline
    " paper's observation that constant propagation and profile feedback";
  print_endline " are crucial for S/390.)"

(** Everything, in paper order. *)
let all () =
  table_5_1 ();
  figure_5_1 ();
  table_5_2 ();
  table_5_3 ();
  table_5_4 ();
  figure_5_2 ();
  table_5_5 ();
  table_5_6 ();
  table_5_7 ();
  figure_5_3 ();
  figure_5_4 ();
  figure_5_5 ();
  table_5_8 ();
  table_5_9 ();
  oracle ();
  ablations ();
  s390_retarget ()
