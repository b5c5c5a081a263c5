(* Spans of one traced VMM run, taken from the monitor's public hooks.

   The event hook gives four intervals:
     Translate_begin -> Translate_end    translator.translate
     Translate_end   -> Tcache_persist   tcache.persist
     Page_enter      -> Vliw_compiled    vliw.stage
     Interp_begin    -> Interp_end       ppc.interp
   and the store's IO backend marks when a probe starts reading an entry,
   so read -> Tcache_hit is tcache.probe (a miss never reads).  Other
   events are only counted: reading the clock on every page entry would
   cost more than the spans are worth. *)

module M = Vmm.Monitor

type mark = { t : int; w : float }

type t = {
  rec_ : Span.recorder;
  req : int;
  mutable translate : mark option;
  mutable persist : mark option;
  mutable stage : mark option;
  mutable interp : mark option;
  mutable probe : mark option;
}

let create rec_ ~req =
  { rec_; req; translate = None; persist = None; stage = None; interp = None;
    probe = None }

let mark () = Some { t = Span.now (); w = Span.words () }

let close h name = function
  | None -> ()
  | Some m ->
    Span.add h.rec_
      { name; req = h.req; t0 = m.t; t1 = Span.now ();
        words = Span.words () -. m.w }

let on_event h (ev : M.event) =
  Atomic.incr h.rec_.events;
  match ev with
  | Translate_begin _ -> h.translate <- mark ()
  | Translate_end _ ->
    close h "translator.translate" h.translate;
    h.translate <- None;
    h.persist <- mark ()
  | Tcache_persist _ ->
    close h "tcache.persist" h.persist;
    h.persist <- None
  | Page_enter _ -> h.stage <- mark ()
  | Vliw_compiled _ ->
    close h "vliw.stage" h.stage;
    h.stage <- None
  | Interp_begin _ -> h.interp <- mark ()
  | Interp_end _ ->
    close h "ppc.interp" h.interp;
    h.interp <- None
  | Tcache_hit _ ->
    close h "tcache.probe" h.probe;
    h.probe <- None
  | _ -> ()

(** The real storage backend, marking the start of every entry read. *)
let io h =
  { Fsio.real with
    read_file =
      (fun path ->
        h.probe <- mark ();
        Fsio.real.read_file path) }

(** Chain ahead of whatever event hook is attached (the observers). *)
let attach h (vmm : M.t) =
  let prev = vmm.event_hook in
  vmm.event_hook <-
    Some
      (fun ev ->
        on_event h ev;
        match prev with Some f -> f ev | None -> ())

(** A tier-2 compile submit that runs the job inline, as a span. *)
let submit h job = Span.timed h.rec_ ~name:"obs.tier2_compile" ~req:h.req job
