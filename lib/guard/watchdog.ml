(* Watchdog deadlines: bounded wall-clock budgets for the three ways a
   dynamic translator can stall a production run.

   - [translate_s]: per fresh page-translation unit.  An overrun throws
     the finished translation away, takes a ladder strike and recovers
     by interpretation (the page retries after backoff, so a transient
     host stall heals).
   - [compile_s]: per tree staging into closures
     ({!Vliw.Compile.stage}'s [?budget]).  A tree stages at its first
     selection, before any of its ops run; an overrun leaves it
     unstaged, takes a ladder strike and interprets from the tree's
     precise entry.
   - [progress]: the runaway-loop detector — this many consecutive
     committed VLIW boundaries at the *same* precise pc with no
     interpretation in between quarantines the page.  Off by default:
     a legitimate single-VLIW counted loop revisits its entry pc once
     per iteration, so any limit must exceed the largest iteration
     count the workload can legally run.

   All three fire a typed {!Vmm.Monitor.event.Deadline} into the
   degradation ladder rather than hanging or killing the run: the
   interpreter is the always-correct path, so a deadline is a
   performance event, never a correctness one.

   The fourth budget is different in kind: [session_s] bounds the WHOLE
   attached run's wall clock.  It exists for the serve layer, where a
   request carries a client deadline and a runaway guest must not hold
   a pool domain forever.  There is no ladder rung for "the run is out
   of time", so expiry raises {!Expired} from the tick hook — at a
   committed boundary, so architected state is precise — and the
   session supervisor above turns it into a typed reply and a clean
   teardown. *)

type config = {
  translate_s : float option;  (** per-translation wall-clock budget *)
  compile_s : float option;    (** per-tree staging wall-clock budget *)
  progress : int option;       (** runaway-loop boundary limit *)
  session_s : float option;    (** whole-run wall-clock budget *)
}

let none =
  { translate_s = None; compile_s = None; progress = None; session_s = None }

exception Expired of float
(** raised at a commit boundary once [session_s] wall-clock seconds
    have elapsed since [attach], on the monotonic clock; carries the
    elapsed seconds.  The run's state is precise but the run is over —
    this is a cancellation, not a ladder event. *)

let attach cfg (vmm : Vmm.Monitor.t) =
  vmm.translate_budget <- cfg.translate_s;
  vmm.compile_budget <- cfg.compile_s;
  vmm.progress_limit <- cfg.progress;
  match cfg.session_s with
  | None -> ()
  | Some budget ->
    let t0 = Monotonic_clock.now () in
    Vmm.Monitor.on_tick vmm (fun ~pc:_ ->
        let elapsed =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
        in
        if elapsed > budget then raise (Expired elapsed))
