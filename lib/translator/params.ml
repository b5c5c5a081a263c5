(* Tunable parameters of the dynamic translator.

   The defaults correspond to the configuration the paper evaluates;
   the boolean switches implement the ablations DESIGN.md calls out. *)

type t = {
  config : Vliw.Config.t;
  page_size : int;      (** translation unit, bytes (power of two) *)
  join_limit : int;     (** k: max times a base instruction may be re-scheduled *)
  window : int;         (** max base instructions scheduled along one path *)
  rename : bool;        (** allow out-of-order issue into renamed registers *)
  load_spec : bool;     (** allow loads to move above stores *)
  store_forward : bool; (** replace must-alias loads with register copies *)
  multipath : bool;     (** schedule down both sides of conditional branches *)
  prob_backward : float;  (** taken probability guess for backward branches *)
  prob_forward : float;   (** taken probability guess for forward branches *)
  prob_hint : float;      (** taken probability when the y-bit hints taken *)
  profile : (int, int * int) Hashtbl.t option;
      (** per-branch (taken, executed) counts from profile-directed
          feedback; used by the traditional-compiler baseline *)
  guard_indirect : bool;
      (** guard-and-inline indirect branches against the target value
          observed at translation time ("if lr==1000 goto 1000; goto
          lr" — the interpretive-compilation idea of Chapter 6) *)
  adaptive_alias : bool;
      (** retranslate a page without load speculation when run-time
          aliasing is frequent there — the refinement Section 5 proposes
          but the paper's own implementation "does not yet have" *)
  watch_code : bool;
      (** trap stores into translated pages (self-modifying code).
          Always on for DAISY; the traditional-compiler baseline turns
          it off, as a static compiler has no such mechanism (and its
          whole-program "page" would otherwise alias all of memory) *)
}

let default =
  { config = Vliw.Config.default; page_size = 4096; join_limit = 4;
    window = 128; rename = true; load_spec = true; store_forward = true;
    multipath = true;
    prob_backward = 0.7; prob_forward = 0.3; prob_hint = 0.85; profile = None;
    guard_indirect = false; adaptive_alias = false; watch_code = true }

(** The "traditional VLIW compiler" stand-in: same scheduling engine
    given whole-program scope, a huge window, a generous re-schedule
    budget and (typically) profile-derived branch probabilities. *)
let traditional ?profile () =
  { default with page_size = 1 lsl 22; join_limit = 8; window = 384; profile;
    watch_code = false }

(** A stable, human-readable digest of every parameter that can change
    the translator's output for the same input bytes.  The persistent
    translation cache (lib/tcache) keys entries on this fingerprint, so
    a cache populated under one configuration is never consulted by a
    run under another.  Profile-directed feedback changes branch
    probabilities per site; its mere presence conservatively forks the
    cache namespace. *)
let fingerprint t =
  Printf.sprintf
    "cfg=%s/%d-%d-%d-%d;page=%d;join=%d;win=%d;ren=%b;spec=%b;fwd=%b;\
     multi=%b;pb=%g;pf=%g;ph=%g;prof=%b;guard=%b;adapt=%b;watch=%b"
    t.config.name t.config.issue t.config.alu t.config.mem t.config.branches
    t.page_size t.join_limit t.window t.rename t.load_spec t.store_forward
    t.multipath t.prob_backward t.prob_forward t.prob_hint
    (t.profile <> None) t.guard_indirect t.adaptive_alias t.watch_code
