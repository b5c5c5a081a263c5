(* Tier-2 region compilation: the superblock scheduler applied at run
   time to one hot region.

   The one-pass translator stops at page boundaries (GO_ACROSS_PAGE),
   which is exactly the measured Table-5.2 gap between DAISY and the
   traditional compiler.  A promoted region closes that gap where it
   pays: the member pages are re-translated as ONE translation unit —
   a single whole-memory "page" whose [Translate.unit_filter] admits
   only the member pages — under the traditional compiler's throttles
   (wide window, generous join limit), so scheduling and speculation
   cross the former page boundaries freely while every escape from the
   region closes as a guarded OFFPAGE exit back to the monitor.

   Unlike {!Tradcomp}, no profile pass runs: this is a *runtime* tier,
   so it uses the translator's static branch heuristics plus whatever
   heat the observability layer already collected to pick the region.
   The compile runs on the execution thread, between two VLIWs.
   Guarded indirect inlining and adaptive aliasing stay disabled:
   turning either on changes the region images, which the translator's
   oracle digests pin byte for byte. *)

module Params = Translator.Params
module Translate = Translator.Translate
module Vec = Translator.Vec

let rec pow2_ceil n k = if k >= n then k else pow2_ceil n (k * 2)

(** The single-unit size covering a memory of [mem_size] bytes. *)
let unit_size mem_size = pow2_ceil mem_size 4096

(** Region-scheduler parameters derived from the tier-1 [params]: same
    machine config, whole-memory unit, traditional-compiler window and
    join limit.  [watch_code] is off — write protection of the member
    pages stays the *monitor's* job (its region-aware alias check and
    on-store hook), the unit here would otherwise alias all of memory. *)
let params ~mem_size (t1 : Params.t) =
  { t1 with
    Params.page_size = unit_size mem_size;
    join_limit = max 8 t1.join_limit;
    window = max 384 t1.window;
    profile = None; guard_indirect = false; adaptive_alias = false;
    watch_code = false }

(** The cache-namespace fingerprint of region images compiled under
    tier-1 [params] for a memory of [mem_size] bytes. *)
let fingerprint ~mem_size t1 = Params.fingerprint (params ~mem_size t1)

(** A fresh region translator over [mem] restricted to the (sorted)
    tier-1 page bases [members].  The caller seeds it with entry points
    ({!compile}) or installs a cached image into it. *)
let translator ~(t1 : Params.t) ~frontend mem ~members =
  let p = params ~mem_size:(Ppc.Mem.size mem) t1 in
  let tr = Translate.create ~frontend p mem in
  let set = Hashtbl.create (Array.length members) in
  Array.iter (fun b -> Hashtbl.replace set b ()) members;
  let mask = lnot (t1.Params.page_size - 1) in
  tr.Translate.unit_filter <- Some (fun a -> Hashtbl.mem set (a land mask));
  tr

type compiled = {
  c_members : int array;   (** sorted member tier-1 page bases *)
  c_tr : Translate.t;      (** owns the image; hand to [Monitor.promote] *)
  c_xpage : Translate.xpage;
  c_insns : int;           (** base instructions scheduled *)
  c_vliws : int;           (** tree VLIWs in the image *)
  c_seconds : float;       (** compile time, on the monotonic clock *)
}

(** Compile the region covering [members], seeding the image from each
    address in [entries] (the entry points tier-1 observed).  Raises
    whatever the translator raises on undecodable input — the tier-2
    driver drops the candidate rather than crash. *)
let compile ~(t1 : Params.t) ~frontend mem ~members ~entries =
  let tr = translator ~t1 ~frontend mem ~members in
  let t0 = Monotonic_clock.now () in
  let i0 = tr.Translate.totals.insns in
  List.iter (fun e -> ignore (Translate.entry tr e)) entries;
  let c_seconds = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
  let c_xpage =
    match Hashtbl.fold (fun _ p _ -> Some p) tr.Translate.pages None with
    | Some p -> p
    | None -> invalid_arg "Region.compile: no entries"
  in
  { c_members = members; c_tr = tr; c_xpage;
    c_insns = tr.Translate.totals.insns - i0;
    c_vliws = Vec.length c_xpage.vliws; c_seconds }
