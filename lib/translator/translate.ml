(* The DAISY dynamic translator (Chapter 2 and Appendix A).

   [entry] translates the group of base instructions reachable from an
   entry point, one page at a time, exactly as TranslateOneEntry /
   CreateVLIWGroupForEntry / DecodeAndScheduleOneInstr describe:

   - a worklist of entry offsets within the page;
   - per entry, a list of paths ordered by decreasing probability, each
     path owning a chain of tree VLIWs (sharing the prefix built before
     conditional branches split them);
   - each base instruction is decoded, cracked into RISC primitives,
     and each primitive is placed greedily: in the earliest VLIW on the
     path where its operands are available and resources remain, with
     its result renamed into a non-architected register and a commit
     appended to the last VLIW (out-of-order placement), or directly in
     the last VLIW writing its architected destination (in-order
     placement).  Stores, branches and serialized system state always
     go in order, which is what keeps exceptions precise. *)

module T = Vliw.Tree
module Op = Vliw.Op
module Cfg = Vliw.Config
open Ppc

(* ------------------------------------------------------------------ *)
(* Translated pages                                                    *)

type xpage = {
  base : int;   (** base physical address of the page (aligned) *)
  psize : int;
  vliws : T.t Vec.t;
  addrs : int Vec.t;              (** VLIW-space address per VLIW *)
  sizes : int Vec.t;
  entries : (int, int) Hashtbl.t; (** page offset -> root VLIW id *)
  mutable code_bytes : int;
  mutable next_addr : int;
  mutable insns_scheduled : int;  (** translation work on this page *)
}

type totals = {
  mutable pages : int;
  mutable groups : int;
  mutable insns : int;       (** base instructions scheduled (with re-scheduling) *)
  mutable vliws_made : int;
  mutable code_bytes : int;
  mutable entry_points : int;
  mutable invalidations : int;
}

type t = {
  params : Params.t;
  mem : Mem.t;
  fe : Frontend.t;
  pages : (int, xpage) Hashtbl.t;
  ro : Bytes.t;
      (** the per-unit read-only bit (Section 3.2): byte [i] is 1 while
          [pages] holds the page at [i lsl ro_shift], for every page of
          memory.  Guest stores test it; addresses past memory fall back
          to [pages]. *)
  ro_shift : int;  (** log2 of the page size *)
  load_spec_off : (int, unit) Hashtbl.t;
      (** pages retranslated with load speculation inhibited (adaptive
          aliasing response) *)
  mutable guard_hint : (int -> int) option;
      (** current run-time value of an architected resource, provided by
          the VMM at translation time; feeds the guarded inlining of
          indirect branches (Chapter 6) *)
  mutable unit_filter : (int -> bool) option;
      (** restricts the translation unit to a subset of the page's
          address range: addresses the filter rejects close as OFFPAGE
          exits exactly like addresses beyond the page bounds.  The
          tier-2 region compiler uses this to translate a whole-memory
          "page" whose valid addresses are the member pages of one hot
          region — speculation crosses former page boundaries inside the
          region, and every escape returns to the monitor. *)
  totals : totals;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(frontend = Frontend.ppc) params mem =
  let ro_shift = log2 params.Params.page_size in
  let npages = (Mem.size mem + params.page_size - 1) lsr ro_shift in
  { params; mem; fe = frontend; pages = Hashtbl.create 64;
    ro = Bytes.make npages '\000'; ro_shift;
    load_spec_off = Hashtbl.create 4; guard_hint = None; unit_filter = None;
    totals = { pages = 0; groups = 0; insns = 0; vliws_made = 0;
               code_bytes = 0; entry_points = 0; invalidations = 0 } }

let page_base t addr = addr land lnot (t.params.page_size - 1)

(* Bring the read-only byte of the page holding [addr] in line with
   [pages], after a change to [pages] at [addr]. *)
let sync_ro t addr =
  let i = addr lsr t.ro_shift in
  if i < Bytes.length t.ro then
    Bytes.unsafe_set t.ro i
      (if Hashtbl.mem t.pages (i lsl t.ro_shift) then '\001' else '\000')

let page_of t addr =
  let base = page_base t addr in
  match Hashtbl.find_opt t.pages base with
  | Some p -> p
  | None ->
    let p =
      { base; psize = t.params.page_size; vliws = Vec.create ();
        addrs = Vec.create (); sizes = Vec.create ();
        entries = Hashtbl.create 16; code_bytes = 0;
        next_addr = Vliw.Layout.vliw_base + (base * Vliw.Layout.expansion);
        insns_scheduled = 0 }
    in
    Hashtbl.add t.pages base p;
    sync_ro t base;
    t.totals.pages <- t.totals.pages + 1;
    p

(** Mark the page containing [addr] so its future translations inhibit
    moving loads above stores (adaptive response to frequent run-time
    aliasing). *)
let inhibit_load_spec t addr =
  Hashtbl.replace t.load_spec_off (page_base t addr) ()

(** Drop the translation of the page containing [addr] (code was
    modified, Section 3.2), if any. *)
let invalidate t addr =
  let base = page_base t addr in
  if Hashtbl.mem t.pages base then (
    Hashtbl.remove t.pages base;
    sync_ro t base;
    t.totals.invalidations <- t.totals.invalidations + 1)

(** Does [addr]'s page have a translation?  Every guest store asks. *)
let translated t addr =
  let i = addr lsr t.ro_shift in
  if i < Bytes.length t.ro then Bytes.unsafe_get t.ro i <> '\000'
  else Hashtbl.mem t.pages (page_base t addr)

(** Was [addr]'s page marked to inhibit load speculation? *)
let load_spec_inhibited t addr = Hashtbl.mem t.load_spec_off (page_base t addr)

(** Install an already-translated page — decoded from the persistent
    translation cache — without doing any translation work: none of the
    [totals] move, which is what lets a warm run report zero pages
    translated.  [spec_inhibited] restores the page's adaptive
    no-load-speculation mark so a retranslation after invalidation
    reproduces the cached shape. *)
let install t ?(spec_inhibited = false) (page : xpage) =
  Hashtbl.replace t.pages page.base page;
  sync_ro t page.base;
  if spec_inhibited then Hashtbl.replace t.load_spec_off page.base ()

(** Does [addr] already have a valid translated entry point?  (Unlike
    {!entry} this never triggers translation work.) *)
let has_entry t addr =
  match Hashtbl.find_opt t.pages (page_base t addr) with
  | Some p -> Hashtbl.mem p.entries (addr - p.base)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Decoded instructions                                                *)

(* Temporary ids are below [max_tmp] (the crackers use 0..9).  Scratch
   slots index TmpG k at k and TmpC k at [max_tmp + k]. *)
let max_tmp = 16

(* What the scheduler needs of one primitive, derived once from its
   {!Crack.shape}: the resources it reads, its slot class, and its
   destination classified as architected resource, temporary or none. *)
type info = {
  srcs : int array;   (* architected resources read, CA/SO/slow included *)
  tsrcs : int array;  (* temporaries read, as scratch slots *)
  load : bool;
  store : bool;
  serial : bool;
  w_ca : bool;
  dst_g : Crack.operand option;
  dst_c : Crack.crf_operand option;
  res_g : int;        (* architected gpr-space destination, or -1 *)
  res_c : int;        (* architected CR-field destination, or -1 *)
  tmp_g : int;        (* TmpG destination slot, or -1 *)
  tmp_c : int;        (* TmpC destination slot, or -1 *)
}

(* The architected resource an operand names, or -1. *)
let res_of_operand : Crack.operand -> int = function
  | Gpr i -> Res.gpr i
  | Lr -> Res.lr
  | Ctr -> Res.ctr
  | Zero | TmpG _ -> -1

let info_of_prim prim =
  let sh = Crack.shape prim in
  let srcs = ref [] and tsrcs = ref [] in
  List.iter
    (fun (o : Crack.operand) ->
      match o with
      | TmpG k -> tsrcs := k :: !tsrcs
      | Zero -> ()
      | o -> srcs := res_of_operand o :: !srcs)
    sh.srcs_g;
  List.iter
    (fun (c : Crack.crf_operand) ->
      match c with
      | Crf f -> srcs := Res.crf f :: !srcs
      | TmpC k -> tsrcs := (max_tmp + k) :: !tsrcs)
    sh.srcs_c;
  if sh.r_ca then srcs := Res.ca :: !srcs;
  if sh.r_so then srcs := Res.so :: !srcs;
  if sh.serial then srcs := Res.slow :: !srcs;
  { srcs = Array.of_list !srcs; tsrcs = Array.of_list !tsrcs;
    load = sh.mem = `Load; store = sh.mem = `Store; serial = sh.serial;
    w_ca = sh.w_ca; dst_g = sh.dst_g; dst_c = sh.dst_c;
    res_g = (match sh.dst_g with Some o -> res_of_operand o | None -> -1);
    res_c = (match sh.dst_c with Some (Crf f) -> Res.crf f | _ -> -1);
    tmp_g = (match sh.dst_g with Some (TmpG k) -> k | _ -> -1);
    tmp_c = (match sh.dst_c with Some (TmpC k) -> max_tmp + k | _ -> -1) }

(* One base instruction, decoded, cracked and summarised the first time
   an [entry] call schedules its address; re-scheduling it (joins, both
   sides of a branch) reuses this. *)
type dinsn = {
  prims : Crack.prim array;
  control : Crack.control;
  infos : info array;
  len : int;
  reads : int;       (* bitmask of architected resources read *)
  force : bool;      (* reads a resource it also writes: staged commits *)
  mutable visits : int;  (* times scheduled in group [vgroup] *)
  mutable vgroup : int;
}

let dinsn_of ((cracked : Crack.cracked), len) =
  let prims = Array.of_list cracked.prims in
  let infos = Array.map info_of_prim prims in
  let bit m r = if r >= 0 then m lor (1 lsl r) else m in
  let reads =
    Array.fold_left (fun m i -> Array.fold_left bit m i.srcs) 0 infos
  in
  let writes =
    Array.fold_left
      (fun m i ->
        let m = bit (bit m i.res_g) i.res_c in
        if i.w_ca then bit m Res.ca else m)
      0 infos
  in
  { prims; control = cracked.control; infos; len; reads;
    force = reads land writes <> 0;
    visits = 0; vgroup = -1 }

type memo = Unseen | Illegal | Decoded of dinsn

module Itbl = Hashtbl.Make (struct
  type t = int
  let equal (a : int) b = a = b
  let hash (x : int) = (x * 0x9E3779B97F4A7C1) lsr 20
end)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

(* A path's renaming state: five per-resource arrays.  There are no
   per-VLIW map rows: for a read at VLIW index [v] (always at or after
   the resource's [avail]), the location is the renamed [cur_loc] unless
   the value's commit landed before [v] ({!loc_at}).  Forks share the
   state copy-on-write ({!own}), so a fork costs O(VLIWs on the path)
   and a fork whose side closes before writing never copies it. *)
type regs = {
  avail : int array;      (* resource -> first VLIW index where readable *)
  commit_at : int array;  (* resource -> VLIW index of pending/last commit *)
  defgen : int array;     (* resource -> definition counter, for
                             value-identity stamps *)
  consts : int array;     (* resource -> known constant value or -1, for
                             indirect->direct branch conversion ("crucial
                             for S/390", Chapter 2) *)
  cur_loc : Op.loc array; (* resource -> location holding its most recent
                             value *)
  mutable sharers : int;  (* open paths holding this state *)
}

type path = {
  mutable vliws_on : T.t Vec.t;      (* VLIWs along this path, root..last *)
  mutable tips : T.node Vec.t;       (* this path's tip in each VLIW *)
  mutable st : regs;
  mutable continuation : int;
  mutable prob : float;
  mutable budget : int;
  mutable floor : int;               (* no op may be placed below this index *)
  mutable last_store : int;          (* highest VLIW index holding a store; -1 *)
  mutable fwd : fwd_info option;     (* the most recent store, for must-alias
                                        forwarding *)
  mutable live_tg : int;             (* pool bits held by live temporaries *)
  mutable live_tc : int;
  mutable force_rename : bool;       (* current insn reads a register it also
                                        writes: its architected commits are
                                        staged and flushed atomically *)
  mutable staged : (int * Op.loc) list;  (* reversed (resource, renamed loc) *)
  mutable closed : bool;
}

(* Everything needed to prove a later load must read the last store's
   value: the access shape, plus the base/source resources and their
   availability stamps (unchanged stamps = unchanged values). *)
and fwd_info = {
  f_width : Ppc.Insn.width;
  f_base : int;        (* base resource id, or -1 for the zero register *)
  f_base_avail : int;  (* defgen stamp of the base at the store *)
  f_off : fwd_off;
  f_src : int;         (* source gpr resource *)
  f_src_avail : int;
}

and fwd_off = FImm of int | FReg of int * int  (* resource, defgen stamp *)

(* Scratch shared by every group of one [entry] call, sized by the work
   done (never by the page size: a tier-2 unit is all of memory). *)
type scratch = {
  decoded : memo Itbl.t;     (* base address -> decoded instruction *)
  tloc : int array;          (* temporaries of the current instruction: *)
  tav : int array;           (*   location, first VLIW index readable, *)
  tgen : int array;          (*   and the [gen] that set them *)
  tconst : int array;        (* known constant of a TmpG, or -1 ... *)
  tcgen : int array;         (*   valid when set under the current [gen] *)
  mutable gen : int;         (* bumped per scheduled instruction *)
  mutable group : int;       (* bumped per group, stamps [visits] *)
  mutable suffix : int array;  (* slot search: pool masks, suffix-ANDed *)
  paths : path Vec.t;        (* open paths of the group, most probable last *)
  spare : regs Vec.t;        (* states no open path holds, for reuse *)
}

let new_scratch () =
  { decoded = Itbl.create 64; tloc = Array.make (2 * max_tmp) 0;
    tav = Array.make (2 * max_tmp) 0; tgen = Array.make (2 * max_tmp) (-1);
    tconst = Array.make max_tmp (-1); tcgen = Array.make max_tmp (-1);
    gen = 0; group = 0; suffix = Array.make 64 0; paths = Vec.create ();
    spare = Vec.create () }

let tmp_mem s k = s.tgen.(k) = s.gen

let tmp_check s k = if not (tmp_mem s k) then raise Not_found

let tmp_av s k = tmp_check s k; s.tav.(k)

let tmp_loc s k = tmp_check s k; s.tloc.(k)

let tmp_set s k loc av =
  s.tloc.(k) <- loc;
  s.tav.(k) <- av;
  s.tgen.(k) <- s.gen

let tconst s k = if s.tcgen.(k) = s.gen then s.tconst.(k) else -1

let set_tconst s k c =
  s.tconst.(k) <- c;
  s.tcgen.(k) <- s.gen

type group = {
  tr : t;
  page : xpage;
  s : scratch;
  load_spec : bool;                       (* loads may move above stores *)
  mutable seq : int;                      (* program-order numbering *)
  mutable pending : int list;             (* page offsets needing entries *)
  first_vliw : int;                       (* id of first VLIW of this group *)
  hint_ok : bool;
      (* run-time register hints are only meaningful for the group the
         VMM is jumping to right now; groups translated eagerly off the
         worklist see stale state and must not plant guards *)
}

let last_index p = Vec.length p.vliws_on - 1
let last_vliw p = Vec.last p.vliws_on
let cur_tip p = Vec.last p.tips

(* Where resource [r]'s value is read in VLIW [v].  Every write of [r]
   moves [avail] to at least the VLIW after the write and sets
   [commit_at] to the commit's index (or max_int while staged), so
   readers at [v >= avail] see the renamed register up to the commit and
   the architected register after it. *)
let loc_at p v r =
  if p.st.commit_at.(r) < v then Res.identity_loc r else p.st.cur_loc.(r)

let new_vliw g precise =
  let id = Vec.length g.page.vliws in
  let v = T.create ~id ~precise_entry:precise in
  Vec.push g.page.vliws v;
  Vec.push g.page.addrs 0;
  Vec.push g.page.sizes 0;
  g.tr.totals.vliws_made <- g.tr.totals.vliws_made + 1;
  v

(** Open a new VLIW at the end of path [p], closing its current tip
    with a fall-through exit. *)
let open_vliw g p =
  let l = Vec.length p.vliws_on in
  let v = new_vliw g p.continuation in
  if l > 0 then T.close (cur_tip p) (T.Next v.id);
  (* temporaries of the instruction being scheduled stay claimed in
     VLIWs opened while it is in flight *)
  v.free_gprs <- v.free_gprs land lnot p.live_tg;
  v.free_crs <- v.free_crs land lnot p.live_tc;
  Vec.push p.vliws_on v;
  Vec.push p.tips (T.root v)

let ensure_last g p v =
  while last_index p < v do
    open_vliw g p
  done

let initial_regs () =
  { avail = Array.make Res.count 0; commit_at = Array.make Res.count (-1);
    defgen = Array.make Res.count 0; consts = Array.make Res.count (-1);
    cur_loc = Array.init Res.count Res.identity_loc; sharers = 1 }

let init_path g addr window =
  let p =
    { vliws_on = Vec.create (); tips = Vec.create (); st = initial_regs ();
      continuation = addr; prob = 1.0;
      budget = window; floor = 0; last_store = -1; fwd = None; live_tg = 0;
      live_tc = 0; force_rename = false; staged = []; closed = false }
  in
  open_vliw g p;
  p

let clone p =
  p.st.sharers <- p.st.sharers + 1;
  { p with vliws_on = Vec.copy p.vliws_on; tips = Vec.copy p.tips }

(* [p]'s state, copied first if another open path still shares it.
   Copies reuse the states of closed paths. *)
let own g p =
  let st = p.st in
  if st.sharers = 1 then st
  else begin
    st.sharers <- st.sharers - 1;
    let st' =
      if Vec.length g.s.spare > 0 then Vec.pop g.s.spare else initial_regs ()
    in
    let blit a a' = Array.blit a 0 a' 0 Res.count in
    blit st.avail st'.avail;
    blit st.commit_at st'.commit_at;
    blit st.defgen st'.defgen;
    blit st.consts st'.consts;
    blit st.cur_loc st'.cur_loc;
    st'.sharers <- 1;
    p.st <- st';
    st'
  end

(* A new definition of resource [r], readable from VLIW [avail] on,
   held in [loc] until its commit at VLIW [commit]. *)
let define g p r ~avail ~commit ~loc =
  let st = own g p in
  st.avail.(r) <- avail;
  st.commit_at.(r) <- commit;
  st.defgen.(r) <- st.defgen.(r) + 1;
  st.cur_loc.(r) <- loc

let set_commit g p r c = (own g p).commit_at.(r) <- c

(* ------------------------------------------------------------------ *)
(* Operand resolution                                                  *)

(* Where an operand is read in VLIW [v]. *)
let gloc g p v = function
  | Crack.Zero -> Op.zero
  | TmpG k -> tmp_loc g.s k
  | o -> loc_at p v (res_of_operand o)

let crf_avail g p = function
  | Crack.Crf f -> p.st.avail.(Res.crf f)
  | TmpC k -> tmp_av g.s (max_tmp + k)

let cloc g p v = function
  | Crack.Crf f -> loc_at p v (Res.crf f)
  | TmpC k -> tmp_loc g.s (max_tmp + k)

(* Earliest VLIW index where all of a primitive's inputs are readable. *)
let sources_avail g p (i : info) =
  let a = ref 0 in
  for k = 0 to Array.length i.srcs - 1 do
    a := Int.max !a p.st.avail.(i.srcs.(k))
  done;
  for k = 0 to Array.length i.tsrcs - 1 do
    a := Int.max !a (tmp_av g.s i.tsrcs.(k))
  done;
  !a

(* ------------------------------------------------------------------ *)
(* Register pools                                                      *)

(* Bit k of [free_gprs] is register 32+k; bit k of [free_crs] is field
   8+k.  A register picked at VLIW [v] must be free from [v] to the end
   of the path. *)

let free_until_end p v ~cr =
  let m = ref (if cr then 0xFF else 0xFFFF_FFFF) in
  for i = v to last_index p do
    let w = Vec.get p.vliws_on i in
    m := !m land if cr then w.T.free_crs else w.T.free_gprs
  done;
  !m

let lowest_bit m =
  let k = ref 0 in
  while m land (1 lsl !k) = 0 do
    incr k
  done;
  !k

exception No_pool  (* no free non-architected register anywhere *)

(* The VLIW a pool register is allocated in: [v] if the pool has a
   register free from [v] to the end of the path, else a fresh VLIW. *)
let pool_index g p v ~cr =
  if free_until_end p v ~cr <> 0 then v
  else (
    open_vliw g p;
    last_index p)

(* Claim a non-architected GPR (or CR field) free from [v] (a
   {!pool_index}) to the end of the path.  Temporaries stay claimed in
   VLIWs opened until the end of the current instruction. *)
let alloc p v ~cr ~temp =
  let m = free_until_end p v ~cr in
  if m = 0 then raise No_pool;
  let bit = lowest_bit m in
  for i = v to last_index p do
    let w = Vec.get p.vliws_on i in
    if cr then w.free_crs <- w.free_crs land lnot (1 lsl bit)
    else w.free_gprs <- w.free_gprs land lnot (1 lsl bit)
  done;
  if cr then (
    if temp then p.live_tc <- p.live_tc lor (1 lsl bit);
    8 + bit)
  else (
    if temp then p.live_tg <- p.live_tg lor (1 lsl bit);
    32 + bit)

(* ------------------------------------------------------------------ *)
(* Building concrete ops from primitives                               *)

let off_loc g p v = function
  | Crack.OffImm i -> Op.OImm i
  | OffReg r -> Op.OReg (gloc g p v r)

let build_op g p v ~spec ~passed ~dst_g ~dst_c (prim : Crack.prim) : Op.t =
  match prim with
  | PBin { op; a; b; _ } ->
    let ca = match op with Insn.Adde -> loc_at p v Res.ca | _ -> Op.ca_loc in
    Op.Bin { op; rt = dst_g; ra = gloc g p v a; rb = gloc g p v b; ca; spec }
  | PBinI { op; a; imm; _ } ->
    Op.BinI { op; rt = dst_g; ra = gloc g p v a; imm; spec }
  | PLogic { op; a; b; _ } ->
    Op.Logic { op; rt = dst_g; ra = gloc g p v a; rb = gloc g p v b; spec }
  | PUn { op; a; _ } -> Op.Un { op; rt = dst_g; ra = gloc g p v a; spec }
  | PSrawi { a; sh; _ } ->
    Op.SrawiOp { rt = dst_g; ra = gloc g p v a; sh; spec }
  | PRlwinm { a; sh; mb; me; _ } ->
    Op.RlwinmOp { rt = dst_g; ra = gloc g p v a; sh; mb; me; spec }
  | PCmp { signed; a; b; _ } ->
    Op.CmpOp { signed; crt = dst_c; ra = gloc g p v a; rb = gloc g p v b; spec }
  | PCmpI { signed; a; imm; _ } ->
    Op.CmpIOp { signed; crt = dst_c; ra = gloc g p v a; imm; spec }
  | PLoad { w; alg; base; off; _ } ->
    Op.LoadOp
      { w; alg; rt = dst_g; base = gloc g p v base; off = off_loc g p v off;
        spec; passed }
  | PStore { w; src; base; off } ->
    Op.StoreOp
      { w; rs = gloc g p v src; base = gloc g p v base;
        off = off_loc g p v off }
  | PCrop { op; t = tf, tb; a = af, ab; b = bf, bb } ->
    let old = match tf with Crack.Crf _ -> cloc g p v tf | TmpC _ -> Op.zero in
    Op.CropOp { op; bt = (dst_c * 4) + tb; ba = (cloc g p v af * 4) + ab;
                bb = (cloc g p v bf * 4) + bb; old; spec }
  | PMcrf { src; _ } -> Op.McrfOp { dst = dst_c; src = cloc g p v src; spec }
  | PMfcr _ ->
    Op.MfcrOp { rt = dst_g; srcs = Array.init 8 (fun f -> cloc g p v (Crf f)) }
  | PCrSet { field; src } ->
    Op.CrSetOp { crt = dst_c; rs = gloc g p v src; pos = field }
  | PGetXer _ -> Op.GetXer { rt = dst_g }
  | PSetXer { src } -> Op.SetXer { rs = gloc g p v src }
  | PGetSpr { spr; _ } -> Op.GetSpr { rt = dst_g; spr }
  | PSetSpr { spr; src } -> Op.SetSpr { spr; rs = gloc g p v src }
  | PGetMsr _ -> Op.GetMsr { rt = dst_g }
  | PSetMsr { src } -> Op.SetMsr { rs = gloc g p v src }

(* The location an architected gpr-space destination writes when placed
   in order. *)
let inorder_dst_loc = function
  | Some o -> (
    match o with
    | Crack.Gpr i -> i
    | Lr -> Op.lr_loc
    | Ctr -> Op.ctr_loc
    | Zero | TmpG _ -> invalid_arg "inorder_dst_loc")
  | None -> Op.zero

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)

(* Make sure the last VLIW can accept the op (ALU or memory slot). *)
let ensure_room g p ~mem_slot =
  let cfg = g.tr.params.config in
  while
    not
      (let v = last_vliw p in
       if mem_slot then Cfg.mem_ok cfg v else Cfg.alu_ok cfg v)
  do
    open_vliw g p
  done

let bump v ~mem_slot =
  if mem_slot then v.T.mem <- v.T.mem + 1 else v.T.alu <- v.T.alu + 1

(* The commit op for resource [r] from location [src]. *)
let commit_op r src : Op.t =
  if r < 32 then CommitG { arch = r; src }
  else if r = Res.lr then CommitLr { src }
  else if r = Res.ctr then CommitCtr { src }
  else if r = Res.ca then CommitCa { src }
  else if Res.is_crf r then CommitCr { arch = r - 37; src }
  else invalid_arg "commit_op"

(* Place a commit op for resource [r] whose renamed value lives at
   [src]; returns the index it was placed at. *)
let place_commit g p r src =
  ensure_room g p ~mem_slot:false;
  let l = last_index p in
  T.add_op (cur_tip p) g.seq (commit_op r src);
  bump (last_vliw p) ~mem_slot:false;
  l

(* After a rename of resource [r] into [dst] placed at index [v]: update
   availability and append the commit — or, when the current
   instruction's commits are staged (it reads a register it also
   writes), defer the commit to the end-of-instruction flush so a
   rollback can never observe it half-committed. *)
let finish_rename g p r dst v =
  define g p r ~avail:(v + 1) ~commit:max_int ~loc:dst;
  if p.force_rename then begin
    (* keep the staged source claimed in VLIWs opened before the flush *)
    if Op.is_nonarch_gpr dst then p.live_tg <- p.live_tg lor (1 lsl (dst - 32))
    else if Op.is_nonarch_cr dst then p.live_tc <- p.live_tc lor (1 lsl (dst - 8));
    p.staged <- (r, dst) :: p.staged
  end
  else set_commit g p r (place_commit g p r dst)

(* In-order bookkeeping for resource [r] written at index [l]. *)
let finish_inorder g p r l =
  define g p r ~avail:(l + 1) ~commit:l ~loc:(Res.identity_loc r)

(* An out-of-order slot strictly before the last VLIW (or at it, when
   [last_ok]), from [v0] on, with a free unit and — when [pool] — a pool
   register free to the end of the path; -1 if none.  Pool availability
   uses suffix-AND masks computed once (the naive free-until-end
   recomputation per candidate is quadratic in the window, which the
   traditional-compiler configuration exposes). *)
let find_slot g p v0 ~mem_slot ~pool ~cr ~last_ok =
  let cfg = g.tr.params.config in
  let l = last_index p in
  if v0 > l then -1
  else begin
    let n = l - v0 + 1 in
    if Array.length g.s.suffix <= n then
      g.s.suffix <- Array.make (2 * (n + 1)) 0;
    let suffix = g.s.suffix in
    suffix.(n) <- 0xFFFF_FFFF;
    if pool then
      for v = l downto v0 do
        let w = Vec.get p.vliws_on v in
        let m = if cr then w.T.free_crs else w.T.free_gprs in
        suffix.(v - v0) <- suffix.(v - v0 + 1) land m
      done;
    let v = ref v0 and found = ref (-1) in
    while !found < 0 && (!v < l || (!v = l && last_ok)) do
      let w = Vec.get p.vliws_on !v in
      let res_ok = if mem_slot then Cfg.mem_ok cfg w else Cfg.alu_ok cfg w in
      if res_ok && ((not pool) || suffix.(!v - v0) <> 0) then found := !v
      else incr v
    done;
    !found
  end

(* Place [prim] out of order at VLIW [v] (or a fresh VLIW, when the
   register pool is exhausted from [v] on), into a renamed register or
   temporary. *)
let place_out g p (i : info) prim v ~mem_slot ~wants_cr ~wants_pool =
  let v = if wants_pool then pool_index g p v ~cr:wants_cr else v in
  let dst_g_loc =
    if wants_pool && not wants_cr then alloc p v ~cr:false ~temp:(i.tmp_g >= 0)
    else Op.zero
  in
  let dst_c_loc =
    if wants_cr then alloc p v ~cr:true ~temp:(i.tmp_c >= 0) else 0
  in
  let passed = i.load && p.last_store >= v in
  let op =
    build_op g p v ~spec:true ~passed ~dst_g:dst_g_loc ~dst_c:dst_c_loc prim
  in
  T.add_op (Vec.get p.tips v) g.seq op;
  bump (Vec.get p.vliws_on v) ~mem_slot;
  if i.tmp_g >= 0 then tmp_set g.s i.tmp_g dst_g_loc (v + 1)
  else if i.tmp_c >= 0 then tmp_set g.s i.tmp_c dst_c_loc (v + 1)
  else begin
    if i.res_g >= 0 then finish_rename g p i.res_g dst_g_loc v;
    if i.res_c >= 0 then finish_rename g p i.res_c dst_c_loc v;
    (* the carry travels in the extender bit of the renamed gpr *)
    if i.w_ca then finish_rename g p Res.ca dst_g_loc v
  end

(* Place one primitive on path [p] (the heart of ScheduleThreeRegOp
   and friends). *)
let place_prim_raw g p (i : info) (prim : Crack.prim) =
  let params = g.tr.params in
  let mem_slot = i.load || i.store in
  let v0 = Int.max (sources_avail g p i) p.floor in
  let v0 =
    if i.load && not g.load_spec then Int.max v0 (p.last_store + 1) else v0
  in
  if i.serial then begin
    (* Serialized system state: always alone at the start of a fresh
       VLIW, reading and writing machine state directly. *)
    open_vliw g p;
    ensure_last g p v0;
    let l = last_index p in
    let dst_g = inorder_dst_loc i.dst_g in
    let op = build_op g p l ~spec:false ~passed:false ~dst_g ~dst_c:0 prim in
    T.add_op (cur_tip p) g.seq op;
    bump (last_vliw p) ~mem_slot:false;
    p.floor <- l + 1;
    if i.res_g >= 0 then finish_inorder g p i.res_g l;
    if i.w_ca then (
      finish_inorder g p Res.ca l;
      finish_inorder g p Res.ov l;
      finish_inorder g p Res.so l);
    finish_inorder g p Res.slow l
  end
  else begin
    ensure_last g p v0;
    let is_temp = i.tmp_g >= 0 || i.tmp_c >= 0 in
    let wants_cr = Option.is_some i.dst_c in
    let wants_pool = wants_cr || Option.is_some i.dst_g in
    (* a self-updating instruction must not write architected registers
       in place: force its register effects through the rename+staged
       commit path (memory and serial effects stay in order; their
       re-execution from the instruction start is idempotent) *)
    let forced =
      p.force_rename && (not i.store)
      && (i.res_g >= 0 || i.res_c >= 0 || i.w_ca)
    in
    let slot =
      if i.store || ((not params.rename) && not forced) then -1
      else
        find_slot g p v0 ~mem_slot ~pool:wants_pool ~cr:wants_cr
          ~last_ok:(is_temp || forced)
    in
    if slot >= 0 then place_out g p i prim slot ~mem_slot ~wants_cr ~wants_pool
    else if is_temp || forced then (
      (* a pool register is required; a fresh VLIW always has both a
         slot and a free register *)
      open_vliw g p;
      place_out g p i prim (last_index p) ~mem_slot ~wants_cr ~wants_pool)
    else begin
      (* in-order placement in the last VLIW *)
      ensure_room g p ~mem_slot;
      let l = last_index p in
      let dst_g = inorder_dst_loc i.dst_g in
      let dst_c = match i.dst_c with Some (Crf f) -> f | _ -> 0 in
      let passed = i.load && p.last_store >= l in
      let op = build_op g p l ~spec:false ~passed ~dst_g ~dst_c prim in
      T.add_op (cur_tip p) g.seq op;
      bump (last_vliw p) ~mem_slot;
      if i.store then begin
        p.last_store <- l;
        p.fwd <-
          (match prim with
          | Crack.PStore { w; src = Gpr srcr; base; off } -> (
            let off_info =
              match off with
              | Crack.OffImm i -> Some (FImm i)
              | Crack.OffReg (Gpr i) ->
                Some (FReg (Res.gpr i, p.st.defgen.(Res.gpr i)))
              | Crack.OffReg _ -> None
            in
            match (base, off_info) with
            | Crack.Gpr i, Some f_off ->
              Some { f_width = w; f_base = Res.gpr i;
                     f_base_avail = p.st.defgen.(Res.gpr i); f_off;
                     f_src = Res.gpr srcr;
                     f_src_avail = p.st.defgen.(Res.gpr srcr) }
            | Crack.Zero, Some f_off ->
              Some { f_width = w; f_base = -1; f_base_avail = 0; f_off;
                     f_src = Res.gpr srcr;
                     f_src_avail = p.st.defgen.(Res.gpr srcr) }
            | _ -> None)
          | _ -> None)
      end;
      if i.res_g >= 0 then finish_inorder g p i.res_g l;
      if i.res_c >= 0 then finish_inorder g p i.res_c l;
      if i.w_ca then finish_inorder g p Res.ca l
    end
  end

(* Constant tracking over the primitives that base-register idioms are
   made of (li/la/balr-link, address masking, shifts-as-rotates, adds of
   constants).  Constants are non-negative; -1 is unknown.  Temp
   constants live in the scratch for one instruction. *)
let const_operand g p : Crack.operand -> int = function
  | Crack.Zero -> 0
  | TmpG k -> tconst g.s k
  | o -> p.st.consts.(res_of_operand o)

let set_const g p (dst : Crack.operand) c =
  match dst with
  | Crack.TmpG k -> set_tconst g.s k c
  | o ->
    let r = res_of_operand o in
    if r >= 0 && p.st.consts.(r) <> c then (own g p).consts.(r) <- c

let track_consts g p (i : info) (prim : Crack.prim) =
  let u32 = Ppc.Interp.u32 in
  match prim with
  | Crack.PBinI { op = IAdd; dst; a; imm } ->
    let c = const_operand g p a in
    set_const g p dst (if c < 0 then -1 else u32 (c + imm))
  | PBin { op = Ppc.Insn.Add; dst; a; b } ->
    let x = const_operand g p a and y = const_operand g p b in
    set_const g p dst (if x < 0 || y < 0 then -1 else u32 (x + y))
  | PRlwinm { dst; a; sh; mb; me } ->
    let c = const_operand g p a in
    set_const g p dst
      (if c < 0 then -1
       else Ppc.Interp.rotl32 c sh land Ppc.Interp.mask_mb_me mb me)
  | _ -> (
    (* anything else clobbers its destination's constant *)
    match i.dst_g with Some o -> set_const g p o (-1) | None -> ())

(* Does a load's offset provably equal the last store's? *)
let fwd_off_matches p f = function
  | Crack.OffImm i -> ( match f.f_off with FImm j -> i = j | FReg _ -> false)
  | Crack.OffReg (Gpr i) -> (
    match f.f_off with
    | FReg (r, stamp) -> r = Res.gpr i && stamp = p.st.defgen.(Res.gpr i)
    | FImm _ -> false)
  | Crack.OffReg _ -> false

(* The must-alias store-to-load forwarding of Section 5: a load that
   provably reads the most recent store's bytes becomes a register copy
   of the stored value. *)
let forwarded p (prim : Crack.prim) =
  match (prim, p.fwd) with
  | Crack.PLoad { w; alg; dst; base; off }, Some f
    when f.f_width = w && fwd_off_matches p f off
         && (match base with
            | Crack.Gpr i ->
              f.f_base = Res.gpr i && p.st.defgen.(Res.gpr i) = f.f_base_avail
            | Crack.Zero -> f.f_base = -1
            | Lr | Ctr | TmpG _ -> false)
         && p.st.defgen.(f.f_src) = f.f_src_avail ->
    let src = Crack.Gpr f.f_src in
    Some
      (match (w, alg) with
      | Ppc.Insn.Word, _ -> Crack.PBinI { op = IAdd; dst; a = src; imm = 0 }
      | Byte, _ -> Crack.PBinI { op = IAnd; dst; a = src; imm = 0xFF }
      | Half, false -> Crack.PBinI { op = IAnd; dst; a = src; imm = 0xFFFF }
      | Half, true -> Crack.PUn { op = Extsh; dst; a = src })
  | _ -> None

(** Place one primitive, first applying store-to-load forwarding. *)
let place_prim g p (i : info) (prim : Crack.prim) =
  match if g.tr.params.store_forward then forwarded p prim else None with
  | None ->
    place_prim_raw g p i prim;
    track_consts g p i prim
  | Some q ->
    let i = info_of_prim q in
    place_prim_raw g p i q;
    track_consts g p i q

(* Speculatively evaluate the target snapshot (TmpG 0) of an indirect
   branch, plugging in run-time values from [hint] for unknown
   architected registers.  Returns the would-be target together with
   the set (a resource bitmask) of registers whose hinted values it
   depends on; a one-element set can be turned into a guard. *)
let spec_eval_target p (d : dinsn) hint =
  let tmp = Array.make max_tmp None in
  let u32 = Ppc.Interp.u32 in
  let operand : Crack.operand -> (int * int) option = function
    | Crack.Zero -> Some (0, 0)
    | TmpG k -> tmp.(k)
    | o ->
      let r = res_of_operand o in
      if p.st.consts.(r) >= 0 then Some (p.st.consts.(r), 0)
      else Some (hint r, 1 lsl r)
  in
  let set_dst (dst : Crack.operand) v =
    match dst with Crack.TmpG k -> tmp.(k) <- v | _ -> ()
  in
  let killed = ref 0 in
  Array.iteri
    (fun k (prim : Crack.prim) ->
      let i = d.infos.(k) in
      (match prim with
      | Crack.PBinI { op = IAdd; dst; a; imm } ->
        set_dst dst
          (Option.map (fun (c, deps) -> (u32 (c + imm), deps)) (operand a))
      | PBin { op = Ppc.Insn.Add; dst; a; b } -> (
        match (operand a, operand b) with
        | Some (x, dx), Some (y, dy) ->
          set_dst dst (Some (u32 (x + y), dx lor dy))
        | _ -> set_dst dst None)
      | PRlwinm { dst; a; sh; mb; me } ->
        set_dst dst
          (Option.map
             (fun (c, deps) ->
               (Ppc.Interp.rotl32 c sh land Ppc.Interp.mask_mb_me mb me, deps))
             (operand a))
      | _ -> set_dst (Option.value i.dst_g ~default:Crack.Zero) None);
      (* a write to an architected register invalidates hints taken
         from it earlier in this instruction *)
      if i.res_g >= 0 then killed := !killed lor (1 lsl i.res_g))
    d.prims;
  (!killed, tmp.(0))

(* The would-be target and its single register dependency, either from
   the cracked snapshot expression or synthesized for a bare LR/CTR
   branch using the front end's architected target masking. *)
let spec_target g p d (target : Crack.target) hint =
  let killed, snap = spec_eval_target p d hint in
  match snap with
  | Some (v, deps) when deps land killed = 0 ->
    (* a pure constant (no deps) is already covered by rewrite_target *)
    if deps <> 0 && deps land (deps - 1) = 0 then
      Some (v land lnot 1, lowest_bit deps)
    else None
  | Some _ -> None
  | None -> (
    let bare r =
      if killed land (1 lsl r) <> 0 || p.st.consts.(r) >= 0 then None
      else Some (hint r land g.tr.fe.Frontend.target_mask, r)
    in
    match target with
    | Crack.ViaLr -> bare Res.lr
    | ViaCtr -> bare Res.ctr
    | ViaReg _ | Direct _ -> None)

(* The indirect-to-direct branch conversion: if the target register (or
   the snapshot temporary the cracker computed the target into) holds a
   known constant on this path, the branch becomes direct — without
   this, S/390 code never straightens (all its branches are indirect). *)
let rewrite_target g p (target : Crack.target) =
  match target with
  | Crack.Direct _ -> target
  | ViaReg _ | ViaLr | ViaCtr -> (
    let c =
      let snap = tconst g.s 0 in
      if snap >= 0 then snap
      else
        match target with
        | Crack.ViaReg r -> p.st.consts.(Res.gpr r)
        | ViaLr -> p.st.consts.(Res.lr)
        | ViaCtr -> p.st.consts.(Res.ctr)
        | Direct _ -> -1
    in
    if c >= 0 then Crack.Direct (c land lnot 1) else target)

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)

let in_page g addr =
  addr >= g.page.base
  && addr < g.page.base + g.page.psize
  && (match g.tr.unit_filter with None -> true | Some f -> f addr)

let offset_of g addr = addr - g.page.base

(* Close the current tip of [p] with [exit]. *)
let close_tip g p exit =
  (match exit with
  | T.OnPage off ->
    if not (Hashtbl.mem g.page.entries off) then
      g.pending <- off :: g.pending
  | _ -> ());
  T.close (cur_tip p) exit;
  p.closed <- true;
  (* a closed path is never read again: its state may be reused *)
  p.st.sharers <- p.st.sharers - 1;
  if p.st.sharers = 0 then Vec.push g.s.spare p.st

(* Close [p] jumping to base address [addr] (on- or off-page). *)
let close_to g p addr =
  if in_page g addr then close_tip g p (T.OnPage (offset_of g addr))
  else close_tip g p (T.OffPage addr)

(* Close with an indirect branch through LR or CTR (or a temporary
   holding the pre-link value). *)
let close_indirect g p target =
  let r, kind =
    match target with
    | Crack.ViaLr -> (Res.lr, `Lr)
    | ViaCtr -> (Res.ctr, `Ctr)
    | ViaReg i -> (Res.gpr i, `Gpr)
    | Direct _ -> invalid_arg "close_indirect"
  in
  match kind with
  | (`Lr | `Gpr) when tmp_mem g.s 0 ->
    (* branch-and-link through the target register: the pre-link value
       was snapshotted into temp 0 by the cracker *)
    ensure_last g p (g.s.tav.(0) - 1);
    close_tip g p (T.Indirect (g.s.tloc.(0), kind))
  | _ ->
    (* all commits for r must have landed *)
    if p.st.commit_at.(r) <> -1 && p.st.commit_at.(r) <> max_int then
      ensure_last g p p.st.commit_at.(r);
    ensure_last g p (p.st.avail.(r) - 1);
    close_tip g p (T.Indirect (Res.identity_loc r, kind))

let guess_prob params ~hint ~backward ~pc =
  let from_profile =
    match params.Params.profile with
    | None -> None
    | Some tbl -> (
      match Hashtbl.find_opt tbl pc with
      | Some (t, n) when n > 0 ->
        Some (Float.max 0.02 (Float.min 0.98 (float_of_int t /. float_of_int n)))
      | _ -> None)
  in
  match from_profile with
  | Some p -> p
  | None ->
    if hint then params.Params.prob_hint
    else if backward then params.Params.prob_backward
    else params.Params.prob_forward

(* Schedule a conditional branch: split the tree at the last VLIW and
   fork the path (ScheduleBranchCond).  [late_commit] places the commit
   of the decremented CTR (left in TmpG Crack.ctr_tmp) in the branch's
   own VLIW, above the split, so the branch instruction commits
   atomically with respect to precise points. *)
let sched_cond_branch ?(close_taken = true) g p ~test:(cop, bitpos) ~sense
    ~target ~hint ~late_commit ~len pc =
  let params = g.tr.params in
  let cfg = params.config in
  ensure_last g p (crf_avail g p cop);
  if Option.is_some late_commit then
    ensure_last g p (tmp_av g.s Crack.ctr_tmp - 1);
  while
    not
      (Cfg.br_ok cfg (last_vliw p)
      && (Option.is_none late_commit || Cfg.alu_ok cfg (last_vliw p)))
  do
    open_vliw g p
  done;
  (match late_commit with
  | None -> ()
  | Some operand ->
    (* the decremented register is committed in the branch's own VLIW
       so the instruction commits atomically at precise points *)
    let r = res_of_operand operand in
    let loc = tmp_loc g.s Crack.ctr_tmp and av = g.s.tav.(Crack.ctr_tmp) in
    T.add_op (cur_tip p) g.seq (commit_op r loc);
    bump (last_vliw p) ~mem_slot:false;
    define g p r ~avail:av ~commit:(last_index p) ~loc;
    (own g p).consts.(r) <- -1);
  let l = last_index p in
  let floc = cloc g p l cop in
  let test : T.test = { bit = (floc * 4) + bitpos; sense } in
  let taken, fall = T.split (cur_tip p) test in
  (last_vliw p).br <- (last_vliw p).br + 1;
  let p2 = clone p in
  Vec.set p2.tips l taken;
  Vec.set p.tips l fall;
  let backward = match target with Crack.Direct t -> t <= pc | _ -> false in
  let pt = guess_prob params ~hint ~backward ~pc in
  p2.prob <- p.prob *. pt;
  p.prob <- p.prob *. (1. -. pt);
  p.continuation <- pc + len;
  (match target with
  | Crack.Direct t ->
    p2.continuation <- t;
    if not (in_page g t) then close_tip g p2 (T.OffPage t)
  | ViaLr | ViaCtr | ViaReg _ ->
    if close_taken then close_indirect g p2 target);
  if not params.multipath then begin
    (* keep only the more probable side *)
    let keep_taken = pt >= 0.5 in
    let doomed = if keep_taken then p else p2 in
    if not doomed.closed then close_to g doomed doomed.continuation
  end;
  p2

(* Flush the staged architected commits of a self-updating instruction:
   commits whose destination is not an input of the instruction may
   spill across VLIWs (re-execution from the instruction start is then
   idempotent), but every input-modifying commit lands in one final
   VLIW, so no precise point ever sees the instruction half-applied. *)
(* Commit, in staging order ([staged] is reversed), the staged writes
   whose resource the instruction reads ([inputs]) or does not. *)
let rec commit_staged g p ~reads ~inputs = function
  | [] -> ()
  | (r, src) :: rest ->
    commit_staged g p ~reads ~inputs rest;
    if reads land (1 lsl r) <> 0 = inputs then
      set_commit g p r (place_commit g p r src)

let flush_staged g p ~reads =
  match p.staged with
  | [] -> ()
  | staged ->
    let ready = ref 0 and inputs = ref 0 in
    List.iter
      (fun (r, _) ->
        ready := Int.max !ready p.st.avail.(r);
        if reads land (1 lsl r) <> 0 then incr inputs)
      staged;
    ensure_last g p !ready;
    commit_staged g p ~reads ~inputs:false staged;
    if !inputs > 0 then begin
      let cfg = g.tr.params.config in
      while
        not
          (let v = last_vliw p in
           Vliw.Config.fits cfg ~alu:(v.T.alu + !inputs) ~mem:v.T.mem
             ~br:v.T.br)
      do
        open_vliw g p
      done;
      commit_staged g p ~reads ~inputs:true staged
    end;
    p.staged <- []

(* Guarded inlining of an indirect branch (Chapter 6): compare the one
   register the target depends on against its value observed at
   translation time; on a match continue straight-line at the observed
   target, otherwise exit indirect.  Returns the matching-side path. *)
let try_guard g p d target pc =
  if (not g.tr.params.guard_indirect) || (not g.hint_ok) || p.closed then None
  else
    match g.tr.guard_hint with
    | None -> None
    | Some hint -> (
      match spec_target g p d target hint with
      | None -> None
      | Some (tgt_val, dep) ->
        if not (in_page g tgt_val) then None
        else (
          let dep_operand =
            if dep < 32 then Crack.Gpr dep
            else if dep = Res.lr then Crack.Lr
            else Crack.Ctr
          in
          let cmp =
            Crack.PCmpI
              { signed = true; dst = TmpC 2; a = dep_operand; imm = hint dep }
          in
          match place_prim g p (info_of_prim cmp) cmp with
          | exception No_pool -> None
          | () ->
            if p.closed then None
            else begin
              let p3 =
                sched_cond_branch g p
                  ~test:(Crack.TmpC 2, Ppc.Insn.Crbit.eq) ~sense:true
                  ~target:(Crack.Direct tgt_val) ~hint:true ~late_commit:None
                  ~len:0 pc
              in
              (* [p] is now the mismatch side *)
              if not p.closed then close_indirect g p target;
              Some p3
            end))

(* ------------------------------------------------------------------ *)
(* Per-instruction driver                                              *)

let find_memo g pc =
  match Itbl.find g.s.decoded pc with m -> m | exception Not_found -> Unseen

let decode g pc =
  let m =
    match g.tr.fe.decode_crack g.tr.mem pc with
    | None -> Illegal
    | Some dl -> Decoded (dinsn_of dl)
  in
  Itbl.add g.s.decoded pc m;
  m

(* Schedule the instruction at the continuation of [p]; may close [p]
   and may return a freshly forked path. *)
let step g p : path option =
  let params = g.tr.params in
  let s = g.s in
  let pc = p.continuation in
  if not (in_page g pc) then (
    close_tip g p (T.OffPage pc);
    None)
  else
    let m = find_memo g pc in
    let visits =
      match m with Decoded d when d.vgroup = s.group -> d.visits | _ -> 0
    in
    if visits > params.join_limit || p.budget <= 0 then (
      close_to g p pc;
      None)
    else
      match (match m with Unseen -> decode g pc | m -> m) with
      | Unseen | Illegal ->
        close_tip g p (T.Trap (Tillegal pc));
        None
      | Decoded d ->
        (* temporaries of the previous instruction are dead now *)
        p.live_tg <- 0;
        p.live_tc <- 0;
        s.gen <- s.gen + 1;
        (* does this instruction read any architected register it also
           writes?  then its commits must be staged (precise exceptions) *)
        p.force_rename <- d.force;
        p.staged <- [];
        d.visits <- visits + 1;
        d.vgroup <- s.group;
        p.budget <- p.budget - 1;
        g.seq <- g.seq + 1;
        g.tr.totals.insns <- g.tr.totals.insns + 1;
        g.page.insns_scheduled <- g.page.insns_scheduled + 1;
        (try
           for k = 0 to Array.length d.prims - 1 do
             place_prim g p d.infos.(k) d.prims.(k)
           done;
           flush_staged g p ~reads:d.reads;
           p.force_rename <- false
         with No_pool ->
           (* pool exhausted even in a fresh VLIW: give up on this path.
              The next group starts here with a fresh pool, unless this
              is already its first instruction: then it would only jump
              to itself, so trap to the interpreter instead *)
           p.staged <- [];
           p.force_rename <- false;
           if g.seq = 1 then close_tip g p (T.Trap (Tillegal pc))
           else close_to g p pc);
        if p.closed then None
        else (
          match d.control with
          | Fallthru ->
            p.continuation <- pc + d.len;
            None
          | Jump target -> (
            match rewrite_target g p target with
            | Direct t ->
              if in_page g t then (
                p.continuation <- t;
                None)
              else (
                close_tip g p (T.OffPage t);
                None)
            | target -> (
              match try_guard g p d target pc with
              | Some p3 -> Some p3
              | None ->
                close_indirect g p target;
                None))
          | CondJump { test; sense; target; hint; late_commit } -> (
            let len = d.len in
            match rewrite_target g p target with
            | Direct _ as target ->
              Some
                (sched_cond_branch g p ~test ~sense ~target ~hint ~late_commit
                   ~len pc)
            | target when Option.is_some late_commit ->
              (* no guarding for decrement-and-branch: the decrement is
                 committed above the split, so any VLIW opened while
                 composing the guard would carry a stale precise point
                 and a rollback there would re-decrement *)
              Some
                (sched_cond_branch g p ~test ~sense ~target ~hint ~late_commit
                   ~len pc)
            | target ->
              let p2 =
                sched_cond_branch ~close_taken:false g p ~test ~sense ~target
                  ~hint ~late_commit ~len pc
              in
              if p2.closed then Some p2
              else (
                match try_guard g p2 d target pc with
                | Some p3 ->
                  (* the mismatch side p2 was closed by try_guard *)
                  Some p3
                | None ->
                  close_indirect g p2 target;
                  Some p2))
          | TrapC trap ->
            close_tip g p (T.Trap trap);
            None)

(* ------------------------------------------------------------------ *)
(* Groups, entries, worklist                                           *)

(* Queue [p] behind the open paths at least as probable. *)
let enqueue g p =
  let q = g.s.paths in
  Vec.push q p;
  let i = ref (Vec.length q - 2) in
  while !i >= 0 && (Vec.get q !i).prob >= p.prob do
    Vec.set q (!i + 1) (Vec.get q !i);
    decr i
  done;
  Vec.set q (!i + 1) p

(* CreateVLIWGroupForEntry. *)
let translate_group ~hint_ok t s page off =
  s.group <- s.group + 1;
  let g =
    { tr = t; page; s;
      load_spec =
        t.params.load_spec && not (Hashtbl.mem t.load_spec_off page.base);
      seq = 0; pending = []; first_vliw = Vec.length page.vliws;
      hint_ok }
  in
  let p0 = init_path g (page.base + off) t.params.window in
  let root = Vec.get p0.vliws_on 0 in
  root.is_entry <- true;
  Hashtbl.replace page.entries off root.id;
  t.totals.entry_points <- t.totals.entry_points + 1;
  t.totals.groups <- t.totals.groups + 1;
  (* the most probable open path is scheduled one instruction at a
     time, then re-queued with any path it forked *)
  enqueue g p0;
  while Vec.length s.paths > 0 do
    let p = Vec.pop s.paths in
    let forked = step g p in
    if not p.closed then enqueue g p;
    match forked with
    | Some p2 when not p2.closed -> enqueue g p2
    | _ -> ()
  done;
  (* lay the new VLIWs out in the translated-code area *)
  for id = g.first_vliw to Vec.length page.vliws - 1 do
    let v = Vec.get page.vliws id in
    let sz = Vliw.Layout.size v in
    Vec.set page.addrs id page.next_addr;
    Vec.set page.sizes id sz;
    page.next_addr <- page.next_addr + sz;
    page.code_bytes <- page.code_bytes + sz;
    t.totals.code_bytes <- t.totals.code_bytes + sz
  done;
  g.pending

(** Ensure base address [addr] has a valid translated entry point;
    translates its group (and, eagerly, the groups its paths stop at)
    if needed.  Returns the page and root VLIW id. *)
let entry t addr =
  let page = page_of t addr in
  let off = addr - page.base in
  if not (Hashtbl.mem page.entries off) then begin
    let s = new_scratch () in
    let wl = Queue.create () in
    Queue.add off wl;
    let hint_ok = ref true in
    while not (Queue.is_empty wl) do
      let o = Queue.pop wl in
      if not (Hashtbl.mem page.entries o) then
        List.iter (fun o' -> Queue.add o' wl)
          (translate_group ~hint_ok:!hint_ok t s page o);
      hint_ok := false
    done
  end;
  (page, Hashtbl.find page.entries off)
