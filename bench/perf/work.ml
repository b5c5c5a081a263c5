(* The six workloads: set-up, the timed phase, and the traced pass.

   Closed loop (steady, tier2, cold_code, warm_code, fill_code): one
   operation runs one program on a fresh [Monitor], from its creation to
   the guest's exit, and is then checked against the reference state
   computed in set-up.  Serve is an open loop of sessions through the
   in-process daemon pieces ([Serve.Pool], [Serve.Shared],
   [Serve.Session]).  Every interval comes from {!Span.now}. *)

module M = Vmm.Monitor
module Tr = Translator.Translate
module Params = Translator.Params

type kind = Steady | Tier2 | Cold_code | Warm_code | Fill_code | Serve

let kinds =
  [ ("steady", Steady); ("tier2", Tier2); ("cold_code", Cold_code);
    ("warm_code", Warm_code); ("fill_code", Fill_code); ("serve", Serve) ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

type sizing = {
  rounds : int;
      (** set-ups, each followed by its share of the timed phase; [setup_s]
          is their median *)
  passes : int;
      (** measured passes per round; serve: sessions per open loop and per
          burst *)
  code_programs : int;  (** fuzz programs in the *_code workloads *)
}

(* Rounds, and measured passes per round (serve: open-loop sessions per
   round), of a ten-second timed phase, sized on a 2-vCPU host.  The
   clock never decides how much work a run does, so two commits measured
   against each other do the same.  Cheap set-ups get more rounds, so
   that setup_s is the median of more samples; warm_code's set-up fills
   a cache, as long as three of its passes, and gets fewer.  Serve's 28
   sessions are four of each program. *)
let per_10s = function
  | Steady -> (10, 2)
  | Tier2 -> (10, 5)
  | Cold_code -> (5, 2)
  | Warm_code -> (3, 4)
  | Fill_code -> (5, 1)
  | Serve -> (5, 28)

(** [--seconds] scales the passes; [--quick] is one round, as many
    passes as all rounds would have, on 64 fuzz programs. *)
let sizing ~quick ~seconds kind =
  let rounds, passes = per_10s kind in
  let scaled n = max 1 (Float.to_int (Float.round (float_of_int n *. seconds /. 10.))) in
  if quick then
    { rounds = 1; passes = scaled (rounds * passes); code_programs = 64 }
  else { rounds; passes = scaled passes; code_programs = 512 }

(* c_sieve's 1.75M-instruction session would set serve's tail alone *)
let serve_programs =
  [ "compress"; "lex"; "fgrep"; "wc"; "cmp"; "sort"; "gcc" ]

(** serve: sessions per second in the open loop *)
let rate = 20.

let tier2_programs = [ "c_sieve"; "compress" ]

(* ------------------------------------------------------------------ *)
(* Scratch directories (all under the run's own work directory)       *)

let rm_rf = Serve.Session.rm_rf

let fresh_dir work name =
  let d = Filename.concat work name in
  rm_rf d;
  Tcache.Store.mkdir_p d;
  d

(* [Tcache.Store] has no close; each [Monitor.create] with a cache
   directory opens a lock descriptor that lives as long as the process
   unless its owner closes it. *)
let close_store (vmm : M.t) =
  Option.iter
    (fun (s : Tcache.Store.t) ->
      try Unix.close s.lock_fd with Unix.Unix_error _ -> ())
    vmm.tcache

(* ------------------------------------------------------------------ *)
(* One operation                                                       *)

(** What a run did, counted; identical across passes for one program. *)
type counts = {
  vliws : int;
  interp : int;
  code_bytes : int;  (** live translated code, tier-2 images included *)
  code_insns : int;  (** base instructions scheduled into that code *)
  pages : int;       (** pages translated by this run *)
  sched : int;       (** base instructions this run scheduled *)
  promotions : int;
  deopts : int;
  region_vliws : int;
  hits : int;
  misses : int;
  persists : int;
  cross : int;
  rollbacks : int;
  links : int;
}

let counts_of (vmm : M.t) =
  (* live code, from the run's translator and its regions' *)
  let live f =
    List.fold_left
      (fun n (tr : Tr.t) -> Hashtbl.fold (fun _ p n -> n + f p) tr.pages n)
      0
      (vmm.tr :: List.map (fun (r : M.region) -> r.r_tr) (M.live_regions vmm))
  in
  let s = vmm.stats in
  { vliws = s.vliws; interp = s.interp_insns;
    code_bytes = live (fun p -> p.code_bytes);
    code_insns = live (fun p -> p.insns_scheduled);
    pages = vmm.tr.totals.pages; sched = vmm.tr.totals.insns;
    promotions = s.tier2_promotions; deopts = s.tier2_deopts;
    region_vliws = s.tier2_vliws; hits = s.tcache_hits;
    misses = s.tcache_misses; persists = s.tcache_persists;
    cross = s.cross_direct + s.cross_lr + s.cross_ctr + s.cross_gpr;
    rollbacks = s.rollbacks; links = s.direct_link_hits }

type outcome =
  | Done of int * counts  (** ns, counts *)
  | Wrong of string       (** finished, but not as the reference did *)
  | Crashed of string     (** raised, or a typed session failure *)

type env = {
  tcache : string option;
  io : Fsio.t;       (** the cache's storage backend *)
  tier2 : bool;
  observers : bool;  (** the stack a default [daisy run] attaches *)
  crash_dir : string;
}

(* The real backend without fsync.  warm_code's set-up fills its cache
   through it: the read path only needs the entries' bytes, durability
   is fill_code's subject, and a set-up waiting on the disk would time
   the disk's neighbours rather than the code. *)
let volatile =
  { Fsio.real with
    label = "volatile";
    write_file =
      (fun path contents ->
        Out_channel.with_open_bin path (fun oc -> output_string oc contents));
    fsync_dir = ignore }

(* [daisy run]'s default stack: the bridge feeding a flight recorder and
   a region profile, and the supervisor that dumps the recorder on
   SIGTERM. *)
let attach_observers env (p : Prog.t) vmm =
  let flight = Obs.Flight.create ~dir:env.crash_dir () in
  let profile =
    Obs.Profile.create ~page_size:Params.default.page_size ()
  in
  Obs.Bridge.attach (Obs.Bridge.create ~profile ~flight ()) vmm;
  ignore (Guard.Supervise.attach ~flight ~workload:p.name vmm)

(** Run [p] once.  With [trace], the run's spans go to that recorder:
    the whole run as [vmm.exec], the monitor's intervals inside it. *)
let run_op ?trace env (p : Prog.t) =
  let mem = Prog.instantiate p.initial in
  let hooks = Option.map (fun r -> Hooks.create r ~req:p.id) trace in
  let vmm = ref None in
  match
    let w0 = Span.words () and t0 = Span.now () in
    let v =
      M.create ?tcache_dir:env.tcache
        ~tcache_io:(match hooks with Some h -> Hooks.io h | None -> env.io)
        mem
    in
    vmm := Some v;
    if env.observers then attach_observers env p v;
    Option.iter (fun h -> Hooks.attach h v) hooks;
    (* last, as [daisy run] does: [Obs.Tier] chains the hooks before it *)
    if env.tier2 then begin
      let submit =
        match hooks with Some h -> Hooks.submit h | None -> fun job -> job ()
      in
      ignore (Obs.Tier.attach ~cfg:{ Obs.Tier.default with submit = Some submit } v)
    end;
    let code = M.run v ~entry:p.entry ~fuel:p.fuel in
    let t1 = Span.now () in
    Option.iter
      (fun r ->
        Span.add r
          { name = "vmm.exec"; req = p.id; t0; t1; words = Span.words () -. w0 })
      trace;
    (code, t1 - t0, v)
  with
  | code, ns, v ->
    close_store v;
    (match Prog.check p ~code ~machine:v.st.m ~mem with
    | Ok () -> Done (ns, counts_of v)
    | Error e -> Wrong e)
  | exception e ->
    Option.iter close_store !vmm;
    Crashed (p.name ^ ": " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* A workload's set-up                                                 *)

type serving = {
  pool : Serve.Pool.t;
  shared : Serve.Shared.t;
  mutable next_sid : int;
}

type setup = {
  kind : kind;
  progs : Prog.t array;
  work : string;            (** this run's scratch directory *)
  warm_dir : string option; (** warm_code: the cache filled in set-up *)
  serving : serving option;
}

let env_of st ~tcache =
  { tcache; io = Fsio.real; tier2 = st.kind = Tier2; observers = true;
    crash_dir = Filename.concat st.work "crash" }

let teardown st =
  Option.iter (fun s -> Serve.Pool.shutdown s.pool) st.serving;
  rm_rf st.work;
  (* the parent too, unless another run is using it *)
  try Sys.rmdir (Filename.dirname st.work) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Serve sessions                                                      *)

type session = {
  sid : int;
  prog : Prog.t;
  due : int;
  mutable submitted : int;
  mutable start : int;
  mutable stop : int;
  mutable result : outcome option;  (** [None]: shed *)
}

let session sv p ~due =
  let sid = sv.next_sid in
  sv.next_sid <- sid + 1;
  { sid; prog = p; due; submitted = 0; start = 0; stop = 0; result = None }

(* The pool job: the session runs whole, then is checked against the
   reference state.  With [trace], queue wait, the session and the VMM
   run inside it are spans too. *)
let session_job ?trace sv s () =
  s.start <- Span.now ();
  let hooks = Option.map (fun r -> Hooks.create r ~req:s.sid) trace in
  let vmm = ref None and vmm_t0 = ref 0 and vmm_w0 = ref 0. in
  let instrument v =
    vmm := Some v;
    vmm_t0 := Span.now ();
    vmm_w0 := Span.words ();
    Option.iter (fun h -> Hooks.attach h v) hooks
  in
  let w0 = Span.words () in
  let o =
    Serve.Session.run ~shared:sv.shared ~id:s.sid ~instrument
      ?tcache_io:(Option.map Hooks.io hooks) s.prog.name
  in
  s.stop <- Span.now ();
  Option.iter
    (fun r ->
      let w = Span.words () in
      Span.add r
        { name = "serve.queue"; req = s.sid; t0 = s.submitted; t1 = s.start;
          words = 0. };
      Span.add r
        { name = "serve.session"; req = s.sid; t0 = s.start; t1 = s.stop;
          words = w -. w0 };
      Span.add r
        { name = "vmm.exec"; req = s.sid; t0 = !vmm_t0; t1 = s.stop;
          words = w -. !vmm_w0 })
    trace;
  Option.iter close_store !vmm;
  s.result <-
    Some
      (match (o.result, !vmm) with
      | Ok r, Some v -> (
        match Prog.check s.prog ~code:r.exit_code ~machine:v.st.m ~mem:v.mem with
        | Ok () -> Done (s.stop - s.start, counts_of v)
        | Error e -> Wrong e)
      | Ok _, None -> Crashed (s.prog.name ^ ": session ran no VMM")
      | Error (Serve.Session.Mismatch m), _ -> Wrong m
      | Error f, _ ->
        Crashed
          (Printf.sprintf "%s: %s: %s" s.prog.name
             (Serve.Session.failure_class f)
             (Serve.Session.failure_detail f)))

let sleep_until t =
  let d = t - Span.now () in
  if d > 0 then Unix.sleepf (float_of_int d /. 1e9)

type open_loop = {
  sessions : session array;
  max_depth : int;
  late_max_ns : int;
}

(** Submit one session per program of [order], [rate] per second, from
    this thread; a refused submit sheds the session. *)
let open_loop ?trace sv order =
  let period = 1e9 /. rate in
  let t_start = Span.now () + 10_000_000 in
  let sessions =
    Array.mapi
      (fun i p ->
        session sv p ~due:(t_start + int_of_float (float_of_int i *. period)))
      order
  in
  let max_depth = ref 0 and late = ref 0 in
  Array.iter
    (fun s ->
      sleep_until s.due;
      s.submitted <- Span.now ();
      late := max !late (s.submitted - s.due);
      match Serve.Pool.try_submit sv.pool (session_job ?trace sv s) with
      | `Accepted -> max_depth := max !max_depth (Serve.Pool.depth sv.pool)
      | `Busy _ | `Closed -> ())
    sessions;
  Serve.Pool.drain sv.pool;
  { sessions; max_depth = !max_depth; late_max_ns = !late }

(** Everything at once through the blocking submit: the pool's
    saturation throughput, in sessions per second, counted from the
    first completion to the third-last, while every domain is busy (the
    ramp-up and the tail, when domains run out of queued work, are
    left out). *)
let burst sv order =
  let t0 = Span.now () in
  let sessions = Array.map (fun p -> session sv p ~due:t0) order in
  Array.iter
    (fun s ->
      s.submitted <- Span.now ();
      Serve.Pool.submit sv.pool (session_job sv s))
    sessions;
  Serve.Pool.drain sv.pool;
  let stops = Array.map (fun s -> s.stop) sessions in
  Array.sort compare stops;
  let k = Array.length stops - 3 in
  (sessions, float_of_int k /. (float_of_int (stops.(k) - stops.(0)) /. 1e9))

(* A balanced, seeded session order: every program equally often (to
   within one), shuffled. *)
let order progs ~seed ~salt n =
  let a = Array.init n (fun i -> progs.(i mod Array.length progs)) in
  let rng = Random.State.make [| seed; salt |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

type failures = {
  mutable attempted : int;
  mutable failed : int;  (** wrong outputs, crashes and sheds *)
  mutable notes : string list;  (** first few messages, newest first *)
}

let note f msg =
  if List.length f.notes < 8 then f.notes <- msg :: f.notes

let tally f o =
  f.attempted <- f.attempted + 1;
  match o with
  | Done _ -> ()
  | Wrong e ->
    f.failed <- f.failed + 1;
    note f ("wrong: " ^ e)
  | Crashed e ->
    f.failed <- f.failed + 1;
    note f ("failed: " ^ e)

(* ------------------------------------------------------------------ *)
(* Set-up, per workload                                                *)

(** Build the inputs from [seed]; warm_code fills its cache, serve starts
    its pool and warms the shared cache.  A program that fails while a
    cache is filled counts in [f] and is missing from the cache. *)
let setup sz kind ~seed ~work f =
  let work = fresh_dir work (Printf.sprintf "%s-%d" (kind_name kind) (Unix.getpid ())) in
  let progs =
    match kind with
    | Steady ->
      Prog.registry
        (List.map (fun (w : Workloads.Wl.t) -> w.name) Workloads.Registry.all)
    | Tier2 -> Prog.registry tier2_programs
    | Cold_code | Warm_code | Fill_code -> Prog.fuzz ~seed ~count:sz.code_programs
    | Serve -> Prog.registry serve_programs
  in
  let st = { kind; progs; work; warm_dir = None; serving = None } in
  match kind with
  | Warm_code ->
    let dir = fresh_dir work "warm" in
    let env = { (env_of st ~tcache:(Some dir)) with io = volatile } in
    Array.iter (fun p -> tally f (run_op env p)) progs;
    { st with warm_dir = Some dir }
  | Serve ->
    let dir = fresh_dir work "shared" in
    let sv =
      { pool = Serve.Pool.create ~queue_cap:16 ~domains:2 ();
        shared = Serve.Shared.create ~dir (); next_sid = 0 }
    in
    let warm = Array.map (fun p -> session sv p ~due:0) progs in
    Array.iter (fun s -> Serve.Pool.submit sv.pool (session_job sv s)) warm;
    Serve.Pool.drain sv.pool;
    Array.iter (fun s -> Option.iter (tally f) s.result) warm;
    { st with serving = Some sv }
  | Steady | Tier2 | Cold_code | Fill_code -> st

(* ------------------------------------------------------------------ *)
(* Results of the timed phase                                          *)

type timed = {
  ns : float list array;
      (** per program, measured run times (serve: session service times) *)
  counts : counts option array;   (** per program, the first run's *)
  drift : int;                    (** runs whose counts differed *)
  ops : int;                      (** measured operations *)
  p50_ns : float;                 (** latency, 50th percentile *)
  p90_ns : float;                 (** latency, 90th percentile *)
  throughput : float;             (** operations per second *)
  setups : float list;            (** each round's set-up time, s *)
  (* serve only *)
  queue_wait_frac : float;
  max_depth : int;
  gate_wins : int;
  gate_waits : int;
  sheds : int;
  late_max_frac : float;
}

(* Record one finished run of program [i]; the first fixes the counts
   every later run must repeat. *)
let record f ~counts ~drift ~ns ~measured i o =
  tally f o;
  match o with
  | Done (t, c) -> (
    (match counts.(i) with
    | None -> counts.(i) <- Some c
    | Some c0 when c0 = c -> ()
    | Some _ ->
      incr drift;
      note f (Printf.sprintf "program %d: counts differ between runs" i));
    if measured then ns.(i) <- float_of_int t :: ns.(i))
  | Wrong _ | Crashed _ -> ()

let no_serve =
  { ns = [||]; counts = [||]; drift = 0; ops = 0; p50_ns = nan; p90_ns = nan;
    throughput = 0.; setups = []; queue_wait_frac = 0.; max_depth = 0;
    gate_wins = 0; gate_waits = 0; sheds = 0; late_max_frac = 0. }

let best l = List.fold_left Float.min infinity l

let pct p = function [] -> nan | l -> Sample.percentile p l

(* A closed-loop pass environment: fill_code gets an empty cache
   directory per pass, removed after it. *)
let with_pass_env st tag f =
  match st.kind with
  | Fill_code ->
    let dir = fresh_dir st.work ("fill-" ^ tag) in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        f (env_of st ~tcache:(Some dir)))
  | Warm_code -> f (env_of st ~tcache:st.warm_dir)
  | Steady | Tier2 | Cold_code | Serve -> f (env_of st ~tcache:None)

(** Run [sz.rounds] rounds: each sets the workload up afresh, timing the
    set-up, and hands it to [round]; every round but the last is torn
    down after it, and the last is returned with the set-up times (s).
    Spread over the timed phase, the set-ups see the same host as the
    timed runs do. *)
let in_rounds sz kind ~seed ~work f round =
  let rec go r setups =
    let t0 = Span.now () in
    let st = setup sz kind ~seed ~work f in
    let setups = (float_of_int (Span.now () - t0) /. 1e9) :: setups in
    (try round r st
     with e ->
       teardown st;
       raise e);
    if r + 1 < sz.rounds then begin
      teardown st;
      go (r + 1) setups
    end
    else (st, List.rev setups)
  in
  go 0 []

(** The timed phase of a closed-loop workload: a discarded warm-up pass,
    then [sz.passes] whole passes in each round.  A run is deterministic
    and the host's noise only ever adds time to it, so each program's
    latency is the best of its measured runs; the percentiles and the
    throughput are taken over those. *)
let timed_closed sz kind ~seed ~work f =
  let ns = ref [||] and counts = ref [||] and drift = ref 0 in
  let st, setups =
    in_rounds sz kind ~seed ~work f (fun r st ->
        if r = 0 then begin
          ns := Array.make (Array.length st.progs) [];
          counts := Array.make (Array.length st.progs) None
        end;
        for pass = (if r = 0 then 0 else 1) to sz.passes do
          with_pass_env st (string_of_int pass) (fun env ->
              Array.iteri
                (fun i p ->
                  record f ~counts:!counts ~drift ~ns:!ns ~measured:(pass > 0) i
                    (run_op env p))
                st.progs)
        done)
  in
  let ns = !ns in
  let bests =
    List.filter_map (function [] -> None | l -> Some (best l)) (Array.to_list ns)
  in
  ( st,
    { no_serve with
      ns; counts = !counts; drift = !drift; setups;
      ops = Array.fold_left (fun k l -> k + List.length l) 0 ns;
      p50_ns = pct 50. bests; p90_ns = pct 90. bests;
      throughput =
        float_of_int (List.length bests)
        /. (List.fold_left ( +. ) 0. bests /. 1e9) } )

(** The timed phase of serve, per round: an open loop of [sz.passes]
    sessions at [rate], then a burst of as many.  The first quarter of
    the first open loop is warm-up.  Latency percentiles are taken over
    every measured open-loop session.  The host's noise only ever adds
    time, so throughput is the best burst's. *)
let timed_serve sz kind ~seed ~work f =
  let n = sz.passes in
  let np = List.length serve_programs in
  let ns = Array.make np [] and counts = Array.make np None and drift = ref 0 in
  let wait = ref 0 and lat = ref 0 and sheds = ref 0 in
  let max_depth = ref 0 and late = ref 0 and wins = ref 0 and waits = ref 0 in
  let lats = ref [] and throughput = ref 0. in
  let st, setups =
    in_rounds sz kind ~seed ~work f (fun r st ->
        let sv = Option.get st.serving in
        let g0 = Serve.Shared.stats sv.shared in
        let ol = open_loop sv (order st.progs ~seed ~salt:(2 * r) n) in
        let burst_s, tput =
          burst sv (order st.progs ~seed ~salt:((2 * r) + 1) n)
        in
        throughput := Float.max !throughput tput;
        let g1 = Serve.Shared.stats sv.shared in
        wins := !wins + g1.gate_wins - g0.gate_wins;
        waits := !waits + g1.gate_waits - g0.gate_waits;
        max_depth := max !max_depth ol.max_depth;
        late := max !late ol.late_max_ns;
        Array.iteri
          (fun k s ->
            let measured = r > 0 || k >= n / 4 in
            match s.result with
            | None ->
              incr sheds;
              tally f (Crashed (Printf.sprintf "session %d shed" s.sid));
              (* a refused request misses every latency limit *)
              if measured then lats := infinity :: !lats
            | Some o ->
              record f ~counts ~drift ~ns ~measured s.prog.id o;
              if measured then begin
                lats := float_of_int (s.stop - s.due) :: !lats;
                wait := !wait + (s.start - s.submitted);
                lat := !lat + (s.stop - s.due)
              end)
          ol.sessions;
        Array.iter
          (fun s ->
            Option.iter
              (record f ~counts ~drift ~ns ~measured:false s.prog.id)
              s.result)
          burst_s)
  in
  ( st,
    { ns; counts; drift = !drift; ops = List.length !lats; setups;
      p50_ns = pct 50. !lats; p90_ns = pct 90. !lats; throughput = !throughput;
      queue_wait_frac = float_of_int !wait /. float_of_int (max 1 !lat);
      max_depth = !max_depth; gate_wins = !wins; gate_waits = !waits;
      sheds = !sheds; late_max_frac = float_of_int !late /. (1e9 /. rate) } )

(** Set up and run the timed phase; returns the last round's set-up,
    still live, for the traced pass. *)
let timed sz kind ~seed ~work f =
  match kind with
  | Serve -> timed_serve sz kind ~seed ~work f
  | Steady | Tier2 | Cold_code | Warm_code | Fill_code ->
    timed_closed sz kind ~seed ~work f

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)

type traced = {
  spans : Span.t list;
  events : int;             (** monitor events the hooks saw *)
  run_counts : (int * counts) list;  (** program id, counts per traced run *)
  trace_ns : float;         (** traced runs' summed latency *)
  base_ns : float;          (** the same programs' timed medians, summed *)
  recorder_frac : float;
  direct_pages : int;
  direct_bytes : int;       (** entry bytes persisted by direct calls *)
}

(* Direct, timed calls into the layers on each program's own code: the
   reference interpreter, a cold translation of the entry page, and a
   persist and probe of that page in a scratch store. *)
let direct r store (p : Prog.t) =
  let req = p.id in
  (match Span.timed r ~name:"ppc.reference" ~req (Prog.reference p) with
  | Some c when c = p.code -> ()
  | _ -> failwith (p.name ^ ": reference run disagrees with set-up"));
  let mem = Prog.instantiate p.initial in
  let tr = Tr.create Params.default mem in
  let xp, _ =
    Span.timed r ~name:"translator.direct" ~req (fun () -> Tr.entry tr p.entry)
  in
  let len = min Params.default.page_size (Ppc.Mem.size mem - xp.base) in
  let key =
    Tcache.Store.key store ~base:xp.base (Ppc.Mem.read_string mem xp.base len)
  in
  let bytes =
    Span.timed r ~name:"tcache.direct_persist" ~req (fun () ->
        Tcache.Store.persist store ~key xp ~spec_inhibited:false)
  in
  (match
     Span.timed r ~name:"tcache.direct_probe" ~req (fun () ->
         Tcache.Store.probe store ~key)
   with
  | `Hit _ -> ()
  | `Miss | `Corrupt _ | `Skipped _ ->
    failwith (p.name ^ ": direct probe missed its own entry"));
  (tr.totals.pages, bytes)

let median_or_zero = function [] -> 0. | l -> Sample.median l

let traced st (t : timed) ~seed f =
  let r = Span.recorder () in
  let run_counts = ref [] and trace_ns = ref 0. in
  let base_ns = ref 0. in
  let take p o =
    tally f o;
    match o with
    | Done (ns, c) ->
      run_counts := (p.Prog.id, c) :: !run_counts;
      trace_ns := !trace_ns +. float_of_int ns;
      base_ns := !base_ns +. median_or_zero t.ns.(p.Prog.id)
    | Wrong _ | Crashed _ -> ()
  in
  (match st.kind with
  | Serve ->
    let sv = Option.get st.serving in
    let order = order st.progs ~seed ~salt:(-1) (2 * Array.length st.progs) in
    let ol = open_loop ~trace:r sv order in
    Array.iter
      (fun s ->
        match s.result with
        | Some o -> take s.prog o
        | None -> tally f (Crashed "traced session shed"))
      ol.sessions
  | Steady | Tier2 | Cold_code | Warm_code | Fill_code ->
    with_pass_env st "traced" (fun env ->
        Array.iter (fun p -> take p (run_op ~trace:r env p)) st.progs));
  let direct_pages = ref 0 and direct_bytes = ref 0 in
  let dir = fresh_dir st.work "direct" in
  let store =
    Tcache.Store.open_store ~dir ~frontend:Translator.Frontend.ppc.name
      ~fingerprint:(Params.fingerprint Params.default) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close store.lock_fd;
      rm_rf dir)
    (fun () ->
      Array.iter
        (fun (p : Prog.t) ->
          match direct r store p with
          | pages, bytes ->
            direct_pages := !direct_pages + pages;
            direct_bytes := !direct_bytes + bytes
          | exception e ->
            tally f (Crashed (p.name ^ ": direct calls: " ^ Printexc.to_string e)))
        st.progs);
  (* the observers' cost: each program with the stack off and on, back
     to back, every other program in the other order so drift in the
     host hits both sides (each side has its own cache directory on
     fill_code) *)
  let recorder_frac =
    match st.kind with
    | Serve -> 0.
    | Steady | Tier2 | Cold_code | Warm_code | Fill_code ->
      let n = Array.length st.progs in
      let off = Array.make n nan and on = Array.make n nan in
      with_pass_env st "ab-off" (fun off_env ->
          with_pass_env st "ab-on" (fun on_env ->
              Array.iteri
                (fun i p ->
                  let sides =
                    [ ({ off_env with observers = false }, off);
                      ({ on_env with observers = true }, on) ]
                  in
                  List.iter
                    (fun (env, acc) ->
                      match run_op env p with
                      | Done (ns, _) -> acc.(i) <- float_of_int ns
                      | (Wrong _ | Crashed _) as o -> tally f o)
                    (if i mod 2 = 0 then sides else List.rev sides))
                st.progs));
      let ratios =
        List.filter
          (fun r -> not (Float.is_nan r))
          (List.init n (fun i -> on.(i) /. off.(i)))
      in
      if ratios = [] then 0. else Sample.geomean ratios -. 1.
  in
  { spans = Span.spans r; events = Atomic.get r.events; run_counts = !run_counts;
    trace_ns = !trace_ns; base_ns = !base_ns; recorder_frac;
    direct_pages = !direct_pages; direct_bytes = !direct_bytes }
