(* Staged execution of tree VLIW instructions.

   [Exec.run] re-walks the [Tree.t] on every execution: it re-decodes
   every operand location, allocates a fresh [ref] tag cell per op,
   builds the pending-write set with list appends, and reverses it to
   recover program order.  This module performs all of that work once
   per tree, at the tree's first selection, and turns the tree into
   OCaml closures:

   - path selection is compiled per tree node — an architected test
     becomes a direct read of [Machine.cr] with precomputed shifts, a
     pool test becomes a direct [crtags]/[crhi] array access;
   - every operand location is resolved once: the hottest op shapes
     read their sources straight from a value array and a coded-tag
     array at an index fixed here, and every other shape reads through
     a closure that picks the right [Vstate] slot (or raises exactly
     what [Vstate] would for a corrupt location, so the monitor's
     degradation ladder sees the same [Exec.Error]s);
   - pending writes and memory accesses accumulate into preallocated
     scratch buffers (parallel int arrays keyed by a small write-kind
     code) that are reset by bumping a fill pointer, not reallocated;
   - each root-to-leaf path is flattened into one closure array, so the
     interpretive engine's two-phase semantics (all tests read entry
     state and pick the path, then the path's ops evaluate against
     entry state, then writes apply in program order) is preserved
     exactly;
   - a tree none of whose paths reads a pool location after writing it,
     or writes one twice, stores its pool results (r32-r63, their tags
     and extender bits, cr8-cr15) straight into [Vstate] as its ops run,
     and buffers only the rest; every read still sees the entry value,
     and the pool is dead at every recovery point, so a rollback need
     not undo those writes ({!pool_in_place});
   - each leaf records whether its path has a store; a store-free path
     skips the alias check, whose verdict it could not change;
   - tree exits are direct-linked: [Tree.Next id] becomes a direct
     reference to tree [id]'s record, staged or not, and [Tree.OnPage
     off] carries a memoized entry-id slot the monitor fills on first
     use, so steady-state intra-page execution never touches a
     [Hashtbl].

   Rollback and precise-exception semantics are those of [Exec.run]:
   the same [Exec.Roll] reasons, the same conversion of
   [Invalid_argument]/[Failure] escapes into [Exec.Error], the same
   deferral of I/O-space loads to the apply phase, and architected
   state and memory untouched by a rolled-back VLIW.  Pool state after
   a rollback is dead: the monitor clears it before anything runs
   again ([Vstate.clear_nonarch]).  Exception tags are
   handled in [Vstate]'s coded form (0 = clean), so executing a VLIW
   writes no boxed value and allocates nothing.

   Staging waits for a tree's first selection rather than its page's
   installation: a dynamic translator should pay only for the code that
   runs, and most trees of a page never do. *)

open Ppc

let u32 = Interp.u32
let s32 = Interp.s32

(* ------------------------------------------------------------------ *)
(* Scratch buffers: pending writes and accesses in program order.
   One instance is shared by every staged page of a monitor — VLIWs
   execute one at a time, so the buffers are reset at VLIW entry and
   never outlive one [exec_vliw] call. *)

type scratch = {
  (* pending writes: kind code + two int operands (+ coded tag for the
     speculative kinds); meaning of [w_a]/[w_b] depends on the kind *)
  mutable w_n : int;
  mutable w_kind : int array;
  mutable w_a : int array;
  mutable w_b : int array;
  mutable w_tag : int array;
  (* memory accesses (mirrors [Exec.access], struct-of-arrays) *)
  mutable a_n : int;
  mutable a_addr : int array;
  mutable a_bytes : int array;
  mutable a_seq : int array;
  mutable a_passed : bool array;
  mutable a_store : bool array;
  (* per-op coded tag accumulator (the compiled counterpart of
     [Exec.eval_op]'s [tag] ref cell; first non-clean tag wins) *)
  mutable tag : int;
}

let create_scratch () =
  {
    w_n = 0;
    w_kind = Array.make 64 0;
    w_a = Array.make 64 0;
    w_b = Array.make 64 0;
    w_tag = Array.make 64 0;
    a_n = 0;
    a_addr = Array.make 32 0;
    a_bytes = Array.make 32 0;
    a_seq = Array.make 32 0;
    a_passed = Array.make 32 false;
    a_store = Array.make 32 false;
    tag = 0;
  }

(* Write-kind codes.  The apply loop switches on these; the operand
   class of every destination was resolved at compile time, and a
   destination outside every class never reaches the buffers. *)
let k_gpr_arch = 0 (* gpr.(a) <- b *)
let k_gpr_pool = 1 (* hi.(a) <- b, tag cleared *)
let k_lr = 2
let k_ctr = 3
let k_tagged = 4 (* pool: hi.(a) <- b, tag from w_tag *)
let k_ext = 5 (* ext.(a) <- b<>0 *)
let k_ca = 6
let k_cr_arch = 7 (* Machine.set_crf a b *)
let k_cr_pool = 8 (* crhi.(a) <- b land 0xF, tag cleared *)
let k_crtagged = 9
let k_xer = 10
let k_msr = 11
let k_spr = 12 (* a = Op.spr_code *)
let k_store8 = 13 (* a = addr, b = value *)
let k_store16 = 14
let k_store32 = 15
let k_mmio8 = 16 (* a = dest loc, b = addr: deferred I/O-space load *)
let k_mmio16 = 17
let k_mmio32 = 18

let grow_writes s =
  let n = Array.length s.w_kind in
  let gi a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  s.w_kind <- gi s.w_kind;
  s.w_a <- gi s.w_a;
  s.w_b <- gi s.w_b;
  s.w_tag <- gi s.w_tag

let[@inline] push_w s kind a b =
  let n = s.w_n in
  if n = Array.length s.w_kind then grow_writes s;
  s.w_kind.(n) <- kind;
  s.w_a.(n) <- a;
  s.w_b.(n) <- b;
  s.w_n <- n + 1

let[@inline] push_wt s kind a b tag =
  let n = s.w_n in
  if n = Array.length s.w_kind then grow_writes s;
  s.w_kind.(n) <- kind;
  s.w_a.(n) <- a;
  s.w_b.(n) <- b;
  s.w_tag.(n) <- tag;
  s.w_n <- n + 1

let grow_accesses s =
  let n = Array.length s.a_addr in
  let gi a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  s.a_addr <- gi s.a_addr;
  s.a_bytes <- gi s.a_bytes;
  s.a_seq <- gi s.a_seq;
  let gb a =
    let b = Array.make (2 * n) false in
    Array.blit a 0 b 0 n;
    b
  in
  s.a_passed <- gb s.a_passed;
  s.a_store <- gb s.a_store

let[@inline] push_access s addr bytes seq passed store =
  let n = s.a_n in
  if n = Array.length s.a_addr then grow_accesses s;
  s.a_addr.(n) <- addr;
  s.a_bytes.(n) <- bytes;
  s.a_seq.(n) <- seq;
  s.a_passed.(n) <- passed;
  s.a_store.(n) <- store;
  s.a_n <- n + 1

(** The accesses of the last executed VLIW as an [Exec.access] list, in
    program order (the interpretive engine accumulates them reversed). *)
let accesses (s : scratch) : Exec.access list =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({
           Exec.addr = s.a_addr.(i);
           bytes = s.a_bytes.(i);
           seq = s.a_seq.(i);
           passed_store = s.a_passed.(i);
           store = s.a_store.(i);
         }
        :: acc)
  in
  go (s.a_n - 1) []

(* ------------------------------------------------------------------ *)
(* Compiled operand readers.  Each mirrors its [Vstate] accessor: the
   location class is decided here, once, and corrupt locations become
   closures that raise exactly what the interpretive read would (the
   [Invalid_argument] is converted to [Exec.Error] by [exec_vliw], as
   [Exec.run] does). *)

(* roll back on consuming the coded tag [c] *)
let rtag c = raise (Exec.Roll (Exec.Rtag (Vstate.tag_of_code c)))

(* [Exec.rd]: GPR-space operand; spec ops accumulate tags, non-spec
   ops roll back on them. *)
let c_rd (st : Vstate.t) (s : scratch) ~spec (l : Op.loc) : unit -> int =
  if l = Op.zero then fun () -> 0
  else if 0 <= l && l < 32 then
    let gpr = st.m.gpr in
    fun () -> Array.unsafe_get gpr l
  else if l < 32 then fun () -> st.m.gpr.(l) (* negative: faults like Vstate.get *)
  else if l < 64 then begin
    let i = l - 32 in
    let hi = st.hi and tags = st.tags in
    if spec then fun () ->
      let c = Array.unsafe_get tags i in
      if c <> 0 && s.tag = 0 then s.tag <- c;
      Array.unsafe_get hi i
    else fun () ->
      let c = Array.unsafe_get tags i in
      if c <> 0 then rtag c;
      Array.unsafe_get hi i
  end
  else if l = Op.lr_loc then
    let m = st.m in
    fun () -> m.lr
  else if l = Op.ctr_loc then
    let m = st.m in
    fun () -> m.ctr
  else fun () -> invalid_arg "Vstate.get"

(* [Exec.rd_cr]: condition-field operand. *)
let c_rd_cr (st : Vstate.t) (s : scratch) ~spec (l : Op.loc) : unit -> int =
  if l < 8 then
    let m = st.m and sh = 4 * (7 - l) in
    fun () -> (m.cr lsr sh) land 0xF
  else if l < 16 then begin
    let i = l - 8 in
    let crhi = st.crhi and crtags = st.crtags in
    if spec then fun () ->
      let c = Array.unsafe_get crtags i in
      if c <> 0 && s.tag = 0 then s.tag <- c;
      Array.unsafe_get crhi i
    else fun () ->
      let c = Array.unsafe_get crtags i in
      if c <> 0 then rtag c;
      Array.unsafe_get crhi i
  end
  else fun () -> st.crhi.(l - 8) (* out of range: faults like get_cr_tagged *)

let c_get_ca (st : Vstate.t) (l : Op.loc) : unit -> bool =
  if l = Op.ca_loc then
    let m = st.m in
    fun () -> m.xer_ca
  else if l >= 32 && l < 64 then
    let ext = st.ext and i = l - 32 in
    fun () -> Array.unsafe_get ext i
  else fun () -> invalid_arg "Vstate.get_ca"

(* Array-read operands: a GPR-space source as a value array, a coded-tag
   array and an index.  The architected registers and the zero register
   read the shared [clean_tags], which nothing ever writes.  LR, CTR and
   out-of-range locations have no such form ([None]); their ops read
   through the closures above. *)
type operand = { vals : int array; tags : int array; ix : int }

let clean_tags = Array.make 32 0
let zero_operand = Some { vals = [| 0 |]; tags = clean_tags; ix = 0 }

let operand (st : Vstate.t) (l : Op.loc) =
  if l = Op.zero then zero_operand
  else if 0 <= l && l < 32 then Some { vals = st.m.gpr; tags = clean_tags; ix = l }
  else if 32 <= l && l < 64 then Some { vals = st.hi; tags = st.tags; ix = l - 32 }
  else None

(* The tag of an op whose reads carry the coded tags [c] (and [c2]), in
   operand order: a speculative op carries the first non-clean one, a
   non-speculative one rolls back on it. *)
let[@inline] tag1 spec c = if c <> 0 && not spec then rtag c else c
let[@inline] tag2 spec c c2 = tag1 spec (if c <> 0 then c else c2)

(* ------------------------------------------------------------------ *)
(* Compiled write destinations, classified as [Exec.result_writes] and
   [cr_writes] do: a speculative pool destination gets the op's tag.
   The index is the pool slot for pool destinations, else the location
   itself.  A location outside every class ([Vstate.gpr_dest],
   [Vstate.cr_dest]) is refused: its op's closure raises the setter's
   [Invalid_argument] once its operands are read, as [Exec.check_write]
   does after [Exec.eval_op], so no write of the VLIW applies.  The
   kinds below are for destinations that passed that test. *)

let dest_kind ~spec (rt : Op.loc) =
  if Op.is_nonarch_gpr rt then if spec then k_tagged else k_gpr_pool
  else if rt = Op.lr_loc then k_lr
  else if rt = Op.ctr_loc then k_ctr
  else k_gpr_arch

let dest_index (rt : Op.loc) = if Op.is_nonarch_gpr rt then rt - 32 else rt

let cr_kind ~spec (crt : Op.loc) =
  if Op.is_nonarch_cr crt then if spec then k_crtagged else k_cr_pool
  else k_cr_arch

let cr_index (crt : Op.loc) = if Op.is_nonarch_cr crt then crt - 8 else crt

(* The pool slot an op of a tree staged with [in_place] writes directly,
   or -1 when its destination is pushed to the scratch buffer. *)
let gpr_slot ~in_place (rt : Op.loc) =
  if in_place && Op.is_nonarch_gpr rt then rt - 32 else -1

let cr_slot ~in_place (crt : Op.loc) =
  if in_place && Op.is_nonarch_cr crt then crt - 8 else -1

(* The closure-read ops write their result with the accumulated tag: a
   pool slot in place, anything else pushed.  A non-speculative result
   is clean, as [k_gpr_pool] and [k_cr_pool] apply it. *)
let result (st : Vstate.t) (s : scratch) ~in_place ~spec (rt : Op.loc) : int -> unit =
  let i = gpr_slot ~in_place rt in
  if i >= 0 then
    let hi = st.hi and tags = st.tags in
    if spec then fun v ->
      Array.unsafe_set hi i v;
      Array.unsafe_set tags i s.tag
    else fun v ->
      Array.unsafe_set hi i v;
      Array.unsafe_set tags i 0
  else if not (Vstate.gpr_dest rt) then fun _ -> Vstate.refuse_gpr ()
  else
    let kind = dest_kind ~spec rt and i = dest_index rt in
    fun v -> push_wt s kind i v s.tag

let gpr_write st s ~in_place rt = result st s ~in_place ~spec:false rt

let cr_result (st : Vstate.t) (s : scratch) ~in_place ~spec (crt : Op.loc) :
    int -> unit =
  let i = cr_slot ~in_place crt in
  if i >= 0 then
    let crhi = st.crhi and crtags = st.crtags in
    if spec then fun v ->
      Array.unsafe_set crhi i (v land 0xF);
      Array.unsafe_set crtags i s.tag
    else fun v ->
      Array.unsafe_set crhi i (v land 0xF);
      Array.unsafe_set crtags i 0
  else if not (Vstate.cr_dest crt) then fun _ -> Vstate.refuse_cr ()
  else
    let kind = cr_kind ~spec crt and i = cr_index crt in
    fun v -> push_wt s kind i v s.tag

let cr_write st s ~in_place crt = cr_result st s ~in_place ~spec:false crt

(* [Exec.carry_writes]: carry goes to the machine CA for architected
   destinations, to the extender bit for pool destinations. *)
let carry_write (st : Vstate.t) (s : scratch) ~in_place (rt : Op.loc) : bool -> unit =
  let i = gpr_slot ~in_place rt in
  if i >= 0 then
    let ext = st.ext in
    fun c -> Array.unsafe_set ext i c
  else if Op.is_nonarch_gpr rt then
    let i = rt - 32 in
    fun c -> push_w s k_ext i (if c then 1 else 0)
  else fun c -> push_w s k_ca 0 (if c then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Per-op compilation: [c_op st mem s seq op] is the staged counterpart
   of [Exec.eval_op st mem seq op] — operand locations, immediates,
   masks, widths and destination classes are all resolved here; the
   returned closure only reads values, computes, and pushes writes. *)

(* The outcomes of a load that stay buffered in either write form: an
   I/O-space address defers the load to apply (or tags a speculative
   one), and a fault tags a speculative load or rolls the VLIW back.
   Only a pool register has a tag: [Vstate.set_tag] refuses any other
   destination of a speculative load on these outcomes. *)
let tmmio = Vstate.code_of_tag Vstate.Tmmio

let tag_dest s rt c =
  if Op.is_nonarch_gpr rt then push_wt s k_tagged (rt - 32) 0 c
  else Vstate.refuse_tag ()

let load_mmio s ~spec k_mmio rt addr =
  if spec then tag_dest s rt tmmio else push_w s k_mmio rt addr

let load_fault s ~spec rt addr =
  if spec then tag_dest s rt (Vstate.code_of_tag (Vstate.Tfault addr))
  else raise (Exec.Roll (Exec.Rfault { addr; write = false }))

(* The load proper, shared by every address shape: [addr] is computed
   and the op's tag from its address operands is in [s.tag] (clean for
   a non-speculative load, which rolled back on a tagged operand). *)
let c_load (st : Vstate.t) (mem : Mem.t) (s : scratch) seq ~in_place
    ~(w : Insn.width) ~alg ~rt ~spec ~passed : int -> unit =
  let bytes = Mem.width_bytes w in
  let fload =
    match w with
    | Insn.Byte -> Mem.load8
    | Half -> Mem.load16
    | Word -> Mem.load32
  in
  let k_mmio =
    match w with Insn.Byte -> k_mmio8 | Half -> k_mmio16 | Word -> k_mmio32
  in
  let alg_half = alg && w = Insn.Half in
  let pi = gpr_slot ~in_place rt in
  if pi >= 0 then
    let hi = st.hi and tags = st.tags in
    fun addr ->
      if Mem.is_mmio addr then load_mmio s ~spec k_mmio rt addr
      else begin
        match fload mem addr with
        | v ->
          Array.unsafe_set hi pi
            (if alg_half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16) else v);
          Array.unsafe_set tags pi s.tag;
          push_access s addr bytes seq passed false
        | exception Mem.Data_fault _ -> load_fault s ~spec rt addr
      end
  else if not (Vstate.gpr_dest rt) then
    (* refused: a speculative load's tag is refused first, a
       non-speculative fault rolls back, every other outcome raises *)
    fun addr ->
      if Mem.is_mmio addr then
        if spec then Vstate.refuse_tag () else Vstate.refuse_gpr ()
      else begin
        match fload mem addr with
        | _ -> Vstate.refuse_gpr ()
        | exception Mem.Data_fault _ -> load_fault s ~spec rt addr
      end
  else
    let kind = dest_kind ~spec rt and di = dest_index rt in
    fun addr ->
      if Mem.is_mmio addr then load_mmio s ~spec k_mmio rt addr
      else begin
        match fload mem addr with
        | v ->
          let v =
            if alg_half then u32 (s32 ((v land 0xFFFF) lsl 16) asr 16) else v
          in
          push_wt s kind di v s.tag;
          push_access s addr bytes seq passed false
        | exception Mem.Data_fault _ -> load_fault s ~spec rt addr
      end

(* Every op shape, reading its operands through the [c_rd] closures. *)
let c_closures (st : Vstate.t) (mem : Mem.t) (s : scratch) ~in_place seq
    (op : Op.t) : unit -> unit =
  let clean () = s.tag <- 0 in
  match op with
  | Bin { op; rt; ra; rb; ca; spec } -> (
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = result st s ~in_place ~spec rt
    and carry = carry_write st s ~in_place rt in
    match op with
    | Insn.Add ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (a + b))
    | Addc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let r = a + b in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | Adde ->
      let fca = c_get_ca st ca in
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let r = a + b + if fca () then 1 else 0 in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | Subf ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (b - a))
    | Subfc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (b - a));
        carry (b >= a)
    | Mullw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (s32 a * s32 b))
    | Mulhw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let p = Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)) in
        res (u32 (Int64.to_int (Int64.shift_right p 32)))
    | Mulhwu ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
        res (u32 (Int64.to_int (Int64.shift_right_logical p 32)))
    | Divw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (if s32 b = 0 then 0 else u32 (s32 a / s32 b))
    | Divwu ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (if b = 0 then 0 else a / b)
    | Neg ->
      fun () ->
        clean ();
        let a = fa () in
        let _b = fb () in
        res (u32 (-s32 a)))
  | BinI { op; rt; ra; imm; spec } -> (
    let fa = c_rd st s ~spec ra in
    let res = result st s ~in_place ~spec rt
    and carry = carry_write st s ~in_place rt in
    match op with
    | Op.IAdd -> fun () -> clean (); res (u32 (fa () + imm))
    | IAddc ->
      let uimm = u32 imm in
      fun () ->
        clean ();
        let r = fa () + uimm in
        res (u32 r);
        carry (r > 0xFFFF_FFFF)
    | IMul -> fun () -> clean (); res (u32 (s32 (fa ()) * imm))
    | IAnd -> fun () -> clean (); res (fa () land imm)
    | IOr -> fun () -> clean (); res (fa () lor imm)
    | IXor -> fun () -> clean (); res (fa () lxor imm))
  | Logic { op; rt; ra; rb; spec } -> (
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = result st s ~in_place ~spec rt
    and carry = carry_write st s ~in_place rt in
    match op with
    | Insn.And_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a land b)
    | Or_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a lor b)
    | Xor_ ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a lxor b)
    | Nand ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a land b)))
    | Nor ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a lor b)))
    | Andc ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (a land u32 (lnot b))
    | Eqv ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        res (u32 (lnot (a lxor b)))
    | Slw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        res (if n >= 32 then 0 else u32 (a lsl n))
    | Srw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        res (if n >= 32 then 0 else a lsr n)
    | Sraw ->
      fun () ->
        clean ();
        let a = fa () in
        let b = fb () in
        let n = b land 0x3F in
        if n >= 32 then begin
          res (if a land 0x8000_0000 <> 0 then 0xFFFF_FFFF else 0);
          carry (a land 0x8000_0000 <> 0 && a <> 0)
        end
        else begin
          let lost = a land ((1 lsl n) - 1) in
          res (u32 (s32 a asr n));
          carry (a land 0x8000_0000 <> 0 && lost <> 0)
        end)
  | Un { op; rt; ra; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result st s ~in_place ~spec rt in
    let f = Interp.alu_x1 op in
    fun () ->
      clean ();
      res (f (fa ()))
  | SrawiOp { rt; ra; sh; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result st s ~in_place ~spec rt
    and carry = carry_write st s ~in_place rt in
    let lmask = if sh = 0 then 0 else (1 lsl sh) - 1 in
    fun () ->
      clean ();
      let v = fa () in
      let c = v land 0x8000_0000 <> 0 && v land lmask <> 0 in
      res (u32 (s32 v asr sh));
      carry c
  | RlwinmOp { rt; ra; sh; mb; me; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = result st s ~in_place ~spec rt in
    let mask = Interp.mask_mb_me mb me in
    fun () ->
      clean ();
      res (Interp.rotl32 (fa ()) sh land mask)
  | CmpOp { signed; crt; ra; rb; spec } ->
    let fa = c_rd st s ~spec ra and fb = c_rd st s ~spec rb in
    let res = cr_result st s ~in_place ~spec crt in
    let m = st.m in
    if signed then fun () ->
      clean ();
      let a = fa () in
      let b = fb () in
      res (Exec.cmp_bits m.xer_so (s32 a < s32 b) (s32 a > s32 b))
    else fun () ->
      clean ();
      let a = fa () in
      let b = fb () in
      res (Exec.cmp_bits m.xer_so (a < b) (a > b))
  | CmpIOp { signed; crt; ra; imm; spec } ->
    let fa = c_rd st s ~spec ra in
    let res = cr_result st s ~in_place ~spec crt in
    let m = st.m in
    let b = if signed then u32 imm else imm in
    if signed then fun () ->
      clean ();
      let a = fa () in
      res (Exec.cmp_bits m.xer_so (s32 a < s32 b) (s32 a > s32 b))
    else fun () ->
      clean ();
      let a = fa () in
      res (Exec.cmp_bits m.xer_so (a < b) (a > b))
  | LoadOp { w; alg; rt; base; off; spec; passed } ->
    let fbase = c_rd st s ~spec base in
    let faddr =
      match off with
      | Op.OImm i -> fun () -> u32 (fbase () + i)
      | OReg r ->
        let fo = c_rd st s ~spec r in
        fun () ->
          let b = fbase () in
          let o = fo () in
          u32 (b + o)
    in
    let load = c_load st mem s seq ~in_place ~w ~alg ~rt ~spec ~passed in
    fun () ->
      clean ();
      load (faddr ())
  | StoreOp { w; rs; base; off } ->
    let frs = c_rd st s ~spec:false rs in
    let fbase = c_rd st s ~spec:false base in
    let foff =
      match off with
      | Op.OImm i -> fun () -> i
      | OReg r -> c_rd st s ~spec:false r
    in
    let bytes = Mem.width_bytes w in
    let k_store =
      match w with
      | Insn.Byte -> k_store8
      | Half -> k_store16
      | Word -> k_store32
    in
    fun () ->
      clean ();
      let v = frs () in
      let b = fbase () in
      let o = foff () in
      let addr = u32 (b + o) in
      if (not (Mem.is_mmio addr)) && not (Mem.in_bounds mem addr bytes) then
        raise (Exec.Roll (Exec.Rfault { addr; write = true }));
      push_w s k_store addr v;
      push_access s addr bytes seq false true
  | CropOp { op; bt; ba; bb; old; spec } ->
    let c_bit i =
      let f = c_rd_cr st s ~spec (i / 4) and sh = 3 - (i mod 4) in
      fun () -> (f () lsr sh) land 1
    in
    let fba = c_bit ba and fbb = c_bit bb in
    let comb =
      match op with
      | Insn.Crand -> ( land )
      | Cror -> ( lor )
      | Crxor -> ( lxor )
      | Crnand -> fun a b -> 1 - (a land b)
      | Crnor -> fun a b -> 1 - (a lor b)
      | Crandc -> fun a b -> a land (1 - b)
      | Creqv -> fun a b -> 1 - (a lxor b)
      | Crorc -> fun a b -> a lor (1 - b)
    in
    let fprev =
      if old < 0 then fun () -> 0 else c_rd_cr st s ~spec old
    in
    let fld = bt / 4 and pos = 3 - (bt mod 4) in
    let res = cr_result st s ~in_place ~spec fld in
    fun () ->
      clean ();
      let a = fba () in
      let b = fbb () in
      let v = comb a b in
      let prev = fprev () in
      res (prev land lnot (1 lsl pos) lor (v lsl pos))
  | McrfOp { dst; src; spec } ->
    let fsrc = c_rd_cr st s ~spec src in
    let res = cr_result st s ~in_place ~spec dst in
    fun () ->
      clean ();
      res (fsrc ())
  | MfcrOp { rt; srcs } ->
    let n = Array.length srcs in
    let fs = Array.init (min 8 n) (fun f -> c_rd_cr st s ~spec:false srcs.(f)) in
    let gw = gpr_write st s ~in_place rt in
    if n < 8 then fun () ->
      (* mirror [Exec]: read the fields that exist (their tags can roll
         back first), then fault on the out-of-range [srcs.(f)] *)
      clean ();
      Array.iter (fun f -> ignore (f ())) fs;
      ignore srcs.(n);
      assert false
    else fun () ->
      clean ();
      let v = ref 0 in
      for f = 0 to 7 do
        v := (!v lsl 4) lor (Array.unsafe_get fs f) ()
      done;
      gw !v
  | CrSetOp { crt; rs; pos } ->
    let frs = c_rd st s ~spec:false rs in
    let cw = cr_write st s ~in_place crt in
    let sh = 4 * (7 - pos) in
    fun () ->
      clean ();
      cw ((frs () lsr sh) land 0xF)
  | GetXer { rt } ->
    let gw = gpr_write st s ~in_place rt in
    let m = st.m in
    fun () -> gw (Machine.get_xer m)
  | SetXer { rs } ->
    let frs = c_rd st s ~spec:false rs in
    fun () ->
      clean ();
      push_w s k_xer 0 (frs ())
  | GetSpr { rt; spr } ->
    let gw = gpr_write st s ~in_place rt in
    let m = st.m in
    (match spr with
    | Op.Xer -> fun () -> gw (Machine.get_xer m)
    | Srr0 -> fun () -> gw m.srr0
    | Srr1 -> fun () -> gw m.srr1
    | Dar -> fun () -> gw m.dar
    | Dsisr -> fun () -> gw m.dsisr
    | Sprg0 -> fun () -> gw m.sprg0
    | Sprg1 -> fun () -> gw m.sprg1
    | Msr -> fun () -> gw m.msr)
  | SetSpr { spr; rs } ->
    let frs = c_rd st s ~spec:false rs in
    let code = Op.spr_code spr in
    fun () ->
      clean ();
      push_w s k_spr code (frs ())
  | GetMsr { rt } ->
    let gw = gpr_write st s ~in_place rt in
    let m = st.m in
    fun () -> gw m.msr
  | SetMsr { rs } ->
    let frs = c_rd st s ~spec:false rs in
    fun () ->
      clean ();
      push_w s k_msr 0 (frs () land 0xFFFF)
  | CommitG { arch; src } ->
    let fsrc = c_rd st s ~spec:false src in
    let gw = gpr_write st s ~in_place arch in
    fun () ->
      clean ();
      gw (fsrc ())
  | CommitCr { arch; src } ->
    let fsrc = c_rd_cr st s ~spec:false src in
    let cw = cr_write st s ~in_place arch in
    fun () ->
      clean ();
      cw (fsrc ())
  | CommitLr { src } ->
    let fsrc = c_rd st s ~spec:false src in
    fun () ->
      clean ();
      push_w s k_lr 0 (fsrc ())
  | CommitCtr { src } ->
    let fsrc = c_rd st s ~spec:false src in
    fun () ->
      clean ();
      push_w s k_ctr 0 (fsrc ())
  | CommitCa { src } ->
    let fca = c_get_ca st src in
    fun () -> push_w s k_ca 0 (if fca () then 1 else 0)

(* The hot shapes (about 80% of executed ops) read array operands and
   write straight into a pool slot or the scratch buffers: no [clean],
   reader or result closure calls.  Any operand without an array form,
   or a refused destination, sends the whole op to [c_closures].  A
   commit's destination is architected, so it always pushes. *)
let c_op (st : Vstate.t) (mem : Mem.t) (s : scratch) ~in_place seq (op : Op.t) :
    unit -> unit =
  let hi = st.hi and ptags = st.tags in
  match op with
  | (CommitG { arch = rt; _ } | BinI { rt; _ } | Bin { rt; _ })
    when not (Vstate.gpr_dest rt) ->
    c_closures st mem s ~in_place seq op
  | CmpIOp { crt; _ } when not (Vstate.cr_dest crt) ->
    c_closures st mem s ~in_place seq op
  | CommitG { arch; src } -> (
    match operand st src with
    | None -> c_closures st mem s ~in_place seq op
    | Some { vals; tags; ix } ->
      let kind = dest_kind ~spec:false arch and di = dest_index arch in
      fun () ->
        let c = Array.unsafe_get tags ix in
        if c <> 0 then rtag c;
        push_w s kind di (Array.unsafe_get vals ix))
  | BinI { op = IAdd; rt; ra; imm; spec } -> (
    let pi = gpr_slot ~in_place rt in
    let kind = dest_kind ~spec rt and di = dest_index rt in
    if ra = Op.zero then
      (* a constant: the literal specialisation *)
      let v = u32 imm in
      if pi >= 0 then fun () ->
        Array.unsafe_set hi pi v;
        Array.unsafe_set ptags pi 0
      else fun () -> push_wt s kind di v 0
    else
      match operand st ra with
      | None -> c_closures st mem s ~in_place seq op
      | Some { vals; tags; ix } ->
        if pi >= 0 then fun () ->
          let c = tag1 spec (Array.unsafe_get tags ix) in
          Array.unsafe_set hi pi (u32 (Array.unsafe_get vals ix + imm));
          Array.unsafe_set ptags pi c
        else fun () ->
          let c = tag1 spec (Array.unsafe_get tags ix) in
          push_wt s kind di (u32 (Array.unsafe_get vals ix + imm)) c)
  | Bin { op = (Insn.Add | Subf) as bop; rt; ra; rb; spec; _ } -> (
    match (operand st ra, operand st rb) with
    | Some { vals = va; tags = ta; ix = ia }, Some { vals = vb; tags = tb; ix = ib } ->
      let pi = gpr_slot ~in_place rt in
      let kind = dest_kind ~spec rt and di = dest_index rt in
      if bop = Insn.Add then
        if pi >= 0 then fun () ->
          let c = tag2 spec (Array.unsafe_get ta ia) (Array.unsafe_get tb ib) in
          Array.unsafe_set hi pi (u32 (Array.unsafe_get va ia + Array.unsafe_get vb ib));
          Array.unsafe_set ptags pi c
        else fun () ->
          let c = tag2 spec (Array.unsafe_get ta ia) (Array.unsafe_get tb ib) in
          push_wt s kind di (u32 (Array.unsafe_get va ia + Array.unsafe_get vb ib)) c
      else if pi >= 0 then fun () ->
        let c = tag2 spec (Array.unsafe_get ta ia) (Array.unsafe_get tb ib) in
        Array.unsafe_set hi pi (u32 (Array.unsafe_get vb ib - Array.unsafe_get va ia));
        Array.unsafe_set ptags pi c
      else fun () ->
        let c = tag2 spec (Array.unsafe_get ta ia) (Array.unsafe_get tb ib) in
        push_wt s kind di (u32 (Array.unsafe_get vb ib - Array.unsafe_get va ia)) c
    | _ -> c_closures st mem s ~in_place seq op)
  | CmpIOp { signed; crt; ra; imm; spec } -> (
    match operand st ra with
    | None -> c_closures st mem s ~in_place seq op
    | Some { vals; tags; ix } ->
      let m = st.m and pi = cr_slot ~in_place crt in
      (* compare bits are a 4-bit field: [k_cr_pool]'s mask keeps them *)
      let crhi = st.crhi and crtags = st.crtags in
      let kind = cr_kind ~spec crt and di = cr_index crt in
      if signed then
        let b = s32 (u32 imm) in
        if pi >= 0 then fun () ->
          let c = tag1 spec (Array.unsafe_get tags ix) in
          let a = s32 (Array.unsafe_get vals ix) in
          Array.unsafe_set crhi pi (Exec.cmp_bits m.xer_so (a < b) (a > b));
          Array.unsafe_set crtags pi c
        else fun () ->
          let c = tag1 spec (Array.unsafe_get tags ix) in
          let a = s32 (Array.unsafe_get vals ix) in
          push_wt s kind di (Exec.cmp_bits m.xer_so (a < b) (a > b)) c
      else if pi >= 0 then fun () ->
        let c = tag1 spec (Array.unsafe_get tags ix) in
        let a = Array.unsafe_get vals ix in
        Array.unsafe_set crhi pi (Exec.cmp_bits m.xer_so (a < imm) (a > imm));
        Array.unsafe_set crtags pi c
      else fun () ->
        let c = tag1 spec (Array.unsafe_get tags ix) in
        let a = Array.unsafe_get vals ix in
        push_wt s kind di (Exec.cmp_bits m.xer_so (a < imm) (a > imm)) c)
  | LoadOp { w; alg; rt; base; off; spec; passed } -> (
    match (operand st base, off) with
    | Some { vals = vb; tags = tb; ix = ib }, Op.OImm i ->
      let load = c_load st mem s seq ~in_place ~w ~alg ~rt ~spec ~passed in
      fun () ->
        s.tag <- tag1 spec (Array.unsafe_get tb ib);
        load (u32 (Array.unsafe_get vb ib + i))
    | Some { vals = vb; tags = tb; ix = ib }, OReg r -> (
      match operand st r with
      | None -> c_closures st mem s ~in_place seq op
      | Some { vals = vo; tags = to_; ix = io } ->
        let load = c_load st mem s seq ~in_place ~w ~alg ~rt ~spec ~passed in
        fun () ->
          s.tag <- tag2 spec (Array.unsafe_get tb ib) (Array.unsafe_get to_ io);
          load (u32 (Array.unsafe_get vb ib + Array.unsafe_get vo io)))
    | None, _ -> c_closures st mem s ~in_place seq op)
  | _ -> c_closures st mem s ~in_place seq op

(* ------------------------------------------------------------------ *)
(* Apply phase: commit the scratch writes in program order.  Mirrors
   [Exec.apply] variant by variant; deferred I/O-space loads perform
   their side effect here, never during evaluation. *)

let apply (st : Vstate.t) (mem : Mem.t) (s : scratch) =
  let m = st.m in
  for i = 0 to s.w_n - 1 do
    let a = s.w_a.(i) and b = s.w_b.(i) in
    match s.w_kind.(i) with
    | 0 (* k_gpr_arch *) -> m.gpr.(a) <- b
    | 1 (* k_gpr_pool *) ->
      st.hi.(a) <- b;
      st.tags.(a) <- 0
    | 2 (* k_lr *) -> m.lr <- b
    | 3 (* k_ctr *) -> m.ctr <- b
    | 4 (* k_tagged *) ->
      st.hi.(a) <- b;
      st.tags.(a) <- s.w_tag.(i)
    | 5 (* k_ext *) -> st.ext.(a) <- b <> 0
    | 6 (* k_ca *) -> m.xer_ca <- b <> 0
    | 7 (* k_cr_arch *) -> Machine.set_crf m a b
    | 8 (* k_cr_pool *) ->
      st.crhi.(a) <- b land 0xF;
      st.crtags.(a) <- 0
    | 9 (* k_crtagged *) ->
      st.crhi.(a) <- b land 0xF;
      st.crtags.(a) <- s.w_tag.(i)
    | 10 (* k_xer *) -> Machine.set_xer m b
    | 11 (* k_msr *) -> m.msr <- b
    | 12 (* k_spr *) -> (
      match a with
      | 0 -> Machine.set_xer m b
      | 1 -> m.srr0 <- b
      | 2 -> m.srr1 <- b
      | 3 -> m.dar <- b
      | 4 -> m.dsisr <- b
      | 5 -> m.sprg0 <- b
      | 6 -> m.sprg1 <- b
      | _ -> m.msr <- b)
    | 13 (* k_store8 *) -> Mem.store8 mem a b
    | 14 (* k_store16 *) -> Mem.store16 mem a b
    | 15 (* k_store32 *) -> Mem.store32 mem a b
    | 16 (* k_mmio8 *) -> Vstate.set_gpr st a (Mem.load8 mem b)
    | 17 (* k_mmio16 *) -> Vstate.set_gpr st a (Mem.load16 mem b)
    | 18 (* k_mmio32 *) -> Vstate.set_gpr st a (Mem.load32 mem b)
    | _ -> assert false
  done

(* ------------------------------------------------------------------ *)
(* Staged trees. *)

type link = { l_off : int; mutable l_entry : int (* -1 = unresolved *) }

type cexit =
  | Cnext of cvliw (* direct-linked [Tree.Next] *)
  | Cnext_id of int (* out-of-range [Tree.Next]: faults on dispatch *)
  | Conpage of link (* [Tree.OnPage] with a memoized entry-id slot *)
  | Coffpage of int
  | Cindirect of Op.loc * [ `Lr | `Ctr | `Gpr ]
  | Ctrap of Tree.trap

(* Direct links and memoized on-page entries short-circuit dispatch only
   *within* a page: every [Coffpage] / [Cindirect] exit returns to the
   monitor's shared exit handlers, which is where cross-page exit edges
   ([Vmm.Monitor.Exit_edge]) are observed.  The staged engine therefore
   produces the same edge stream as the tree walker by construction —
   there is no separate emission path to keep in sync here. *)

and cleaf = {
  ops : (unit -> unit) array; (* the whole root-to-leaf path, program order *)
  nops : int;
  has_store : bool; (* does the path have a store (and so need the alias check)? *)
  exit : cexit;
}

and cvliw = {
  c_id : int;
  c_tree : Tree.t;
  mutable select : unit -> cleaf;
      (* until the tree's first selection, a stub that stages the tree
         and replaces itself with the compiled path selection *)
  mutable staged : bool;
}

(** One staged [Translate.xpage]: a record per tree, each compiled on
    its first selection, plus the state and scratch they compile
    against. *)
type page = {
  mutable vliws : cvliw array;
  mutable n_staged : int;  (** trees compiled so far *)
  scratch : scratch;
  st : Vstate.t;
  mem : Mem.t;
  budget : unit -> float option;
      (** wall-clock allowance (seconds) for staging one tree, read at
          each staging *)
  on_stage : page -> float -> unit;
      (** called after each tree stages, with its staging seconds *)
}

exception Budget_exceeded of float
(** The staging of one tree overran the page's [budget]; carries the
    elapsed seconds.  The tree stays unstaged. *)

exception Stage_error of exn
(** Raised by a tree's first selection when staging it fails:
    {!Budget_exceeded}, or whatever escaped decoding or compiling the
    tree.  It carries the cause so that [exec_vliw]'s conversion of
    escapes into [Exec.Error] never sees it: staging fails before any op
    of the tree runs, so the VLIW's precise entry state is intact. *)

(* In-range [Tree.Next] exits link to the target's record, staged or
   not; an unstaged target stages on its own first selection. *)
let c_exit (p : page) (e : Tree.exit) : cexit =
  match e with
  | Tree.Next id when id >= 0 && id < Array.length p.vliws -> Cnext p.vliws.(id)
  | Tree.Next id -> Cnext_id id
  | OnPage off -> Conpage { l_off = off; l_entry = -1 }
  | OffPage a -> Coffpage a
  | Indirect (l, k) -> Cindirect (l, k)
  | Trap tr -> Ctrap tr

(* The write-form check, bottom-up.  [touched n] is the set of pool
   locations the ops of [n] and of every node below it read or write,
   or -1 when one of those ops writes a location that an op after it on
   some path reads or writes.  Every op below a node shares a path with
   each op of the node, so one union per node stands for all its paths.
   A node's ops are stored newest first, the order this walk wants; it
   allocates nothing. *)
let rec touched (n : Tree.node) =
  let below =
    match n.kind with
    | Tree.Branch { taken; fall; _ } ->
      let t = touched taken in
      if t < 0 then t
      else
        let f = touched fall in
        if f < 0 then f else t lor f
    | Open | Exit _ -> 0
  in
  ops_touched below n.ops

and ops_touched later = function
  | [] -> later
  | (_, op) :: older ->
    let w = Op.pool_writes op in
    if later < 0 || w land later <> 0 then -1
    else ops_touched (later lor w lor Op.pool_reads op) older

(** Can [t] write its pool results in place?  Yes when no root-to-leaf
    path reads a pool location after an earlier op of the path wrote
    it, and none writes one twice: every op then reads the entry value
    it would read from a buffered tree, and each location's one write is
    its last.  Branch tests read entry state before any op runs.  An
    extender bit counts as its register, which can only reject more
    trees. *)
let pool_in_place (t : Tree.t) = touched (Tree.root t) >= 0

(* Compile path selection from [node] down, with [prefix] the compiled
   ops of the path above it and [store] whether that path has a store.
   Mirrors [Exec.select]: tests read entry state only, ops collect in
   program order, an open tip is a structural error, a tagged pool test
   rolls the VLIW back. *)
let rec c_sel (p : page) ~in_place (prefix : (unit -> unit) list) nprefix store
    (n : Tree.node) : unit -> cleaf =
  let st = p.st in
  let ops = Tree.ops_in_order n in
  let cops =
    List.map (fun (seq, op) -> c_op st p.mem p.scratch ~in_place seq op) ops
  in
  let prefix = prefix @ cops in
  let nprefix = nprefix + List.length cops in
  let store = store || List.exists (fun (_, op) -> Op.is_store op) ops in
  match n.kind with
  | Tree.Open -> fun () -> raise (Exec.Error "open tip reached at runtime")
  | Exit e ->
    let leaf =
      { ops = Array.of_list prefix; nops = nprefix; has_store = store;
        exit = c_exit p e }
    in
    fun () -> leaf
  | Branch { test; taken; fall } ->
    let ftaken = c_sel p ~in_place prefix nprefix store taken in
    let ffall = c_sel p ~in_place prefix nprefix store fall in
    let fld = test.bit / 4 and sh = 3 - (test.bit mod 4) in
    let sense = test.sense in
    if fld < 8 then
      let m = st.Vstate.m and csh = 4 * (7 - fld) in
      fun () ->
        let field = (m.cr lsr csh) land 0xF in
        if (field lsr sh) land 1 = 1 = sense then ftaken () else ffall ()
    else if fld < 16 then
      let i = fld - 8 in
      let crhi = st.Vstate.crhi and crtags = st.Vstate.crtags in
      fun () ->
        let c = Array.unsafe_get crtags i in
        if c <> 0 then rtag c;
        if (Array.unsafe_get crhi i lsr sh) land 1 = 1 = sense then ftaken ()
        else ffall ()
    else fun () -> invalid_arg "index out of bounds"
(* out-of-range test field: faults like [Vstate.get_cr_tagged] *)

(* Compile [cv]'s path selection into its record, in place when the
   tree passes {!pool_in_place}, timed on the monotonic clock against
   the page's budget.  A tree that fails to stage is left unstaged;
   that includes a cached tree whose body, decoded here on first use,
   is malformed. *)
let stage_tree (p : page) (cv : cvliw) =
  let t0 = Monotonic_clock.now () in
  match
    let root = Tree.root cv.c_tree in
    let in_place = touched root >= 0 in
    let select = c_sel p ~in_place [] 0 false root in
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
    (match p.budget () with
    | Some b when dt > b -> raise (Budget_exceeded dt)
    | _ -> ());
    (select, dt)
  with
  | exception e -> raise (Stage_error e)
  | select, dt ->
    cv.select <- select;
    cv.staged <- true;
    p.n_staged <- p.n_staged + 1;
    p.on_stage p dt

let unstaged (p : page) id tree =
  let rec cv =
    { c_id = id; c_tree = tree; staged = false;
      select =
        (fun () ->
          stage_tree p cv;
          cv.select ()) }
  in
  cv

(** Append records for [trees], the trees an in-place extension added
    to the page; the records already there, staged or not, stay as
    they are. *)
let extend (p : page) (trees : Tree.t array) =
  let n = Array.length p.vliws in
  p.vliws <- Array.append p.vliws (Array.mapi (fun i -> unstaged p (n + i)) trees)

(** A staged page over [trees] whose trees are not compiled yet: each
    compiles on its first selection, in [exec_vliw].  [budget], when
    given, bounds the time one tree's staging may take; a tree that
    overruns it raises {!Stage_error} ({!Budget_exceeded}) instead of
    letting a pathological tree stall the whole run. *)
let stage ?(budget = fun () -> None) ?(on_stage = fun _ _ -> ()) ~(st : Vstate.t)
    ~(mem : Mem.t) ~(scratch : scratch) (trees : Tree.t array) : page =
  let p = { vliws = [||]; n_staged = 0; scratch; st; mem; budget; on_stage } in
  extend p trees;
  p

(** Trees on the page, staged or not. *)
let n_trees p = Array.length p.vliws

(** The staged VLIW with tree id [id]; raises [Invalid_argument] for an
    id outside the page, as [Vec.get] would. *)
let get (p : page) id = p.vliws.(id)

(** Execute one staged VLIW.  Semantics are those of [Exec.run]: select
    a path against entry state, evaluate its ops against entry state
    (an in-place tree writing its pool results as it goes, every other
    write into the scratch buffers), run the alias check if the path
    has a store, then apply the buffered writes in program order — or
    raise [Exec.Roll].  [Invalid_argument]/[Failure] escapes from the
    select/evaluate phase surface as [Exec.Error], exactly as in the
    interpretive engine.  On [Exec.Roll] and [Exec.Error], architected
    state and memory are untouched; pool state may hold writes of the
    abandoned path, and is dead: the monitor clears it
    ([Vstate.clear_nonarch]) before any VLIW runs again.  A tree not
    yet staged stages first, and a failure there raises {!Stage_error}
    before any op runs.  Returns the selected leaf; its accesses are in
    the scratch buffers. *)
let exec_vliw (p : page) (cv : cvliw) ~(alias_check : scratch -> bool) : cleaf =
  let s = p.scratch in
  s.w_n <- 0;
  s.a_n <- 0;
  match
    let leaf = cv.select () in
    let ops = leaf.ops in
    for i = 0 to Array.length ops - 1 do
      (Array.unsafe_get ops i) ()
    done;
    if leaf.has_store && not (alias_check s) then raise (Exec.Roll Exec.Ralias);
    leaf
  with
  | exception Invalid_argument msg ->
    raise (Exec.Error ("Invalid_argument: " ^ msg))
  | exception Failure msg -> raise (Exec.Error ("Failure: " ^ msg))
  | leaf ->
    apply p.st p.mem s;
    leaf
