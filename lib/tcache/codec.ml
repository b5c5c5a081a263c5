(* The versioned binary codec for translated pages.

   Hand-rolled, like lib/obs's JSON: the toolchain carries no
   serialization library and the cache must not pull new dependencies.
   The encoding is a tagged, byte-oriented format — one tag byte per
   variant constructor, zigzag varints for every integer — chosen so an
   entry is compact (a translated page is typically a few KB) and so
   decoding is a linear scan with no lookahead.  Each tree's root is
   preceded by its byte length, so the scan can step over it.

   Robustness contract, in two stages.  [decode_xpage] reads and checks
   the whole page eagerly: the geometry, every tree's header fields and
   the span of its root, the entry table and the trailing bytes; it
   either returns a page or raises {!Corrupt}, so a truncated prefix
   never decodes.  A tree's root is decoded the first time it is forced
   ({!Vliw.Tree.root}, when the tree first stages), and raises
   {!Corrupt} then unless it is a well-formed node that fills its span
   exactly.  Neither stage crashes on truncated or bit-flipped input or
   fabricates an op from an unknown tag.  The store wraps every entry
   in a whole-payload checksum as well, so decode failures here are the
   second line of defense.

   Versioning: [version] names the shape of everything below.  Any
   change to the tags, the field order, or the enum codes in
   {!Ppc.Insn} / {!Vliw.Op} must bump it; the store reports an entry of
   another version as corrupt and sets it aside, so a stale cache
   degrades to a normal translate and is refilled.

   The end of the module holds what every durable store shares: the
   file frame ({!frame}, {!unframe}) and the one reader ({!read}). *)

module T = Vliw.Tree
module Op = Vliw.Op
module Translate = Translator.Translate
module Vec = Translator.Vec

(* v2: the store header gained an entry-kind byte (page vs tier-2
   region image) and, for regions, the member-page base list.
   v3: each tree writes its root's byte length ahead of the root, and
   region keys carry [Store.region_prefix]. *)
let version = 3

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Primitive writers / readers                                         *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

(* Zigzag varint: works for any OCaml int, negative included. *)
let put_vint b n =
  let rec go u =
    if u land lnot 0x7F <> 0 then begin
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x7F)));
      go (u lsr 7)
    end
    else Buffer.add_char b (Char.chr u)
  in
  go ((n lsl 1) lxor (n asr 62))

let put_bool b v = put_u8 b (if v then 1 else 0)

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }

let get_u8 r =
  if r.pos >= String.length r.s then corrupt "truncated at byte %d" r.pos;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* A loop over local refs, not a local recursive function: the refs
   stay in registers, where a closure would be allocated per varint. *)
let get_vint r =
  let shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !shift > 63 then corrupt "varint too long at byte %d" r.pos;
    let c = get_u8 r in
    acc := !acc lor ((c land 0x7F) lsl !shift);
    if c land 0x80 <> 0 then shift := !shift + 7 else more := false
  done;
  let u = !acc in
  (u lsr 1) lxor (-(u land 1))

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool %d at byte %d" n r.pos

(* Bounded counts: no valid page holds anywhere near a million of
   anything, so a huge count is corruption, not data — reject it before
   allocating. *)
let get_count r what =
  let n = get_vint r in
  if n < 0 || n > 1 lsl 20 then corrupt "implausible %s count %d" what n;
  n

let need what = function Some v -> v | None -> corrupt "bad %s code" what

let put_str b s =
  put_vint b (String.length s);
  Buffer.add_string b s

let get_str r =
  let n = get_count r "string" in
  if r.pos + n > String.length r.s then corrupt "truncated string";
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)

let put_off b = function
  | Op.OImm i ->
    put_u8 b 0;
    put_vint b i
  | Op.OReg l ->
    put_u8 b 1;
    put_vint b l

let get_off r : Op.off =
  match get_u8 r with
  | 0 -> OImm (get_vint r)
  | 1 -> OReg (get_vint r)
  | n -> corrupt "bad offset tag %d" n

let put_op b (op : Op.t) =
  let tag n = put_u8 b n in
  let v n = put_vint b n in
  match op with
  | Bin { op; rt; ra; rb; ca; spec } ->
    tag 0; v (Ppc.Insn.xo_code op); v rt; v ra; v rb; v ca; put_bool b spec
  | BinI { op; rt; ra; imm; spec } ->
    tag 1; v (Op.ibin_code op); v rt; v ra; v imm; put_bool b spec
  | Logic { op; rt; ra; rb; spec } ->
    tag 2; v (Ppc.Insn.x_code op); v rt; v ra; v rb; put_bool b spec
  | Un { op; rt; ra; spec } ->
    tag 3; v (Ppc.Insn.x1_code op); v rt; v ra; put_bool b spec
  | SrawiOp { rt; ra; sh; spec } -> tag 4; v rt; v ra; v sh; put_bool b spec
  | RlwinmOp { rt; ra; sh; mb; me; spec } ->
    tag 5; v rt; v ra; v sh; v mb; v me; put_bool b spec
  | CmpOp { signed; crt; ra; rb; spec } ->
    tag 6; put_bool b signed; v crt; v ra; v rb; put_bool b spec
  | CmpIOp { signed; crt; ra; imm; spec } ->
    tag 7; put_bool b signed; v crt; v ra; v imm; put_bool b spec
  | LoadOp { w; alg; rt; base; off; spec; passed } ->
    tag 8; v (Ppc.Insn.width_code w); put_bool b alg; v rt; v base;
    put_off b off; put_bool b spec; put_bool b passed
  | StoreOp { w; rs; base; off } ->
    tag 9; v (Ppc.Insn.width_code w); v rs; v base; put_off b off
  | CropOp { op; bt; ba; bb; old; spec } ->
    tag 10; v (Ppc.Insn.cr_op_code op); v bt; v ba; v bb; v old;
    put_bool b spec
  | McrfOp { dst; src; spec } -> tag 11; v dst; v src; put_bool b spec
  | MfcrOp { rt; srcs } ->
    tag 12; v rt; v (Array.length srcs); Array.iter (fun l -> v l) srcs
  | CrSetOp { crt; rs; pos } -> tag 13; v crt; v rs; v pos
  | GetXer { rt } -> tag 14; v rt
  | SetXer { rs } -> tag 15; v rs
  | GetSpr { rt; spr } -> tag 16; v rt; v (Op.spr_code spr)
  | SetSpr { spr; rs } -> tag 17; v (Op.spr_code spr); v rs
  | GetMsr { rt } -> tag 18; v rt
  | SetMsr { rs } -> tag 19; v rs
  | CommitG { arch; src } -> tag 20; v arch; v src
  | CommitCr { arch; src } -> tag 21; v arch; v src
  | CommitLr { src } -> tag 22; v src
  | CommitCtr { src } -> tag 23; v src
  | CommitCa { src } -> tag 24; v src

(* Fields are read with [get_vint r] itself: a local helper closing over
   [r] would be allocated per op. *)
let get_op r : Op.t =
  match get_u8 r with
  | 0 ->
    let op = need "xo_op" (Ppc.Insn.xo_of_code (get_vint r)) in
    let rt = get_vint r in let ra = get_vint r in
    let rb = get_vint r in let ca = get_vint r in
    Bin { op; rt; ra; rb; ca; spec = get_bool r }
  | 1 ->
    let op = need "ibin" (Op.ibin_of_code (get_vint r)) in
    let rt = get_vint r in let ra = get_vint r in let imm = get_vint r in
    BinI { op; rt; ra; imm; spec = get_bool r }
  | 2 ->
    let op = need "x_op" (Ppc.Insn.x_of_code (get_vint r)) in
    let rt = get_vint r in let ra = get_vint r in let rb = get_vint r in
    Logic { op; rt; ra; rb; spec = get_bool r }
  | 3 ->
    let op = need "x1_op" (Ppc.Insn.x1_of_code (get_vint r)) in
    let rt = get_vint r in let ra = get_vint r in
    Un { op; rt; ra; spec = get_bool r }
  | 4 ->
    let rt = get_vint r in let ra = get_vint r in let sh = get_vint r in
    SrawiOp { rt; ra; sh; spec = get_bool r }
  | 5 ->
    let rt = get_vint r in let ra = get_vint r in let sh = get_vint r in
    let mb = get_vint r in let me = get_vint r in
    RlwinmOp { rt; ra; sh; mb; me; spec = get_bool r }
  | 6 ->
    let signed = get_bool r in
    let crt = get_vint r in let ra = get_vint r in let rb = get_vint r in
    CmpOp { signed; crt; ra; rb; spec = get_bool r }
  | 7 ->
    let signed = get_bool r in
    let crt = get_vint r in let ra = get_vint r in let imm = get_vint r in
    CmpIOp { signed; crt; ra; imm; spec = get_bool r }
  | 8 ->
    let w = need "width" (Ppc.Insn.width_of_code (get_vint r)) in
    let alg = get_bool r in
    let rt = get_vint r in let base = get_vint r in let off = get_off r in
    let spec = get_bool r in
    LoadOp { w; alg; rt; base; off; spec; passed = get_bool r }
  | 9 ->
    let w = need "width" (Ppc.Insn.width_of_code (get_vint r)) in
    let rs = get_vint r in let base = get_vint r in
    StoreOp { w; rs; base; off = get_off r }
  | 10 ->
    let op = need "cr_op" (Ppc.Insn.cr_op_of_code (get_vint r)) in
    let bt = get_vint r in let ba = get_vint r in
    let bb = get_vint r in let old = get_vint r in
    CropOp { op; bt; ba; bb; old; spec = get_bool r }
  | 11 ->
    let dst = get_vint r in let src = get_vint r in
    McrfOp { dst; src; spec = get_bool r }
  | 12 ->
    let rt = get_vint r in
    let n = get_count r "mfcr srcs" in
    if n <> 8 then corrupt "mfcr with %d fields" n;
    MfcrOp { rt; srcs = Array.init n (fun _ -> get_vint r) }
  | 13 ->
    let crt = get_vint r in let rs = get_vint r in
    CrSetOp { crt; rs; pos = get_vint r }
  | 14 -> GetXer { rt = get_vint r }
  | 15 -> SetXer { rs = get_vint r }
  | 16 ->
    let rt = get_vint r in
    GetSpr { rt; spr = need "spr" (Op.spr_of_code (get_vint r)) }
  | 17 ->
    let spr = need "spr" (Op.spr_of_code (get_vint r)) in
    SetSpr { spr; rs = get_vint r }
  | 18 -> GetMsr { rt = get_vint r }
  | 19 -> SetMsr { rs = get_vint r }
  | 20 -> let arch = get_vint r in CommitG { arch; src = get_vint r }
  | 21 -> let arch = get_vint r in CommitCr { arch; src = get_vint r }
  | 22 -> CommitLr { src = get_vint r }
  | 23 -> CommitCtr { src = get_vint r }
  | 24 -> CommitCa { src = get_vint r }
  | n -> corrupt "bad op tag %d" n

(* ------------------------------------------------------------------ *)
(* Trees                                                               *)

let put_exit b (e : T.exit) =
  match e with
  | Next id -> put_u8 b 0; put_vint b id
  | OnPage off -> put_u8 b 1; put_vint b off
  | OffPage a -> put_u8 b 2; put_vint b a
  | Indirect (l, k) ->
    put_u8 b 3;
    put_vint b l;
    put_u8 b (match k with `Lr -> 0 | `Ctr -> 1 | `Gpr -> 2)
  | Trap (Tsc a) -> put_u8 b 4; put_vint b a
  | Trap Trfi -> put_u8 b 5
  | Trap (Tillegal a) -> put_u8 b 6; put_vint b a

let get_exit r : T.exit =
  match get_u8 r with
  | 0 -> Next (get_vint r)
  | 1 -> OnPage (get_vint r)
  | 2 -> OffPage (get_vint r)
  | 3 ->
    let l = get_vint r in
    let k =
      match get_u8 r with
      | 0 -> `Lr
      | 1 -> `Ctr
      | 2 -> `Gpr
      | n -> corrupt "bad indirect kind %d" n
    in
    Indirect (l, k)
  | 4 -> Trap (Tsc (get_vint r))
  | 5 -> Trap Trfi
  | 6 -> Trap (Tillegal (get_vint r))
  | n -> corrupt "bad exit tag %d" n

(* [node.ops] is stored in its in-memory (reversed) order so the decode
   is an exact structural round-trip. *)
let rec put_node b (n : T.node) =
  put_vint b (List.length n.ops);
  List.iter
    (fun (seq, op) ->
      put_vint b seq;
      put_op b op)
    n.ops;
  match n.kind with
  | Open -> put_u8 b 0
  | Exit e -> put_u8 b 1; put_exit b e
  | Branch { test; taken; fall } ->
    put_u8 b 2;
    put_vint b test.bit;
    put_bool b test.sense;
    put_node b taken;
    put_node b fall

let rec get_node r : T.node =
  let nops = get_count r "op" in
  let ops =
    List.init nops (fun _ ->
        let seq = get_vint r in
        (seq, get_op r))
  in
  let kind : T.kind =
    match get_u8 r with
    | 0 -> Open
    | 1 -> Exit (get_exit r)
    | 2 ->
      let bit = get_vint r in
      let sense = get_bool r in
      let taken = get_node r in
      Branch { test = { bit; sense }; taken; fall = get_node r }
    | n -> corrupt "bad node kind %d" n
  in
  { ops; kind }

(* A tree is its header fields, then its root's byte length, then the
   root.  [scratch] holds the root while its length is measured; an
   encoder of many trees passes one buffer for all of them. *)
let put_tree ?(scratch = Buffer.create 256) b (t : T.t) =
  put_vint b t.id;
  put_vint b t.precise_entry;
  put_bool b t.is_entry;
  put_vint b t.alu;
  put_vint b t.mem;
  put_vint b t.br;
  put_vint b t.free_gprs;
  put_vint b t.free_crs;
  Buffer.clear scratch;
  put_node scratch (T.root t);
  put_vint b (Buffer.length scratch);
  Buffer.add_buffer b scratch

(* The header fields are read now and the root's span is checked to lie
   inside the input; the root itself is decoded when it is first forced
   ({!T.root}), and raises {!Corrupt} then unless it fills its span
   exactly. *)
let get_tree r : T.t =
  let id = get_vint r in
  let precise_entry = get_vint r in
  let is_entry = get_bool r in
  let alu = get_vint r in
  let mem = get_vint r in
  let br = get_vint r in
  let free_gprs = get_vint r in
  let free_crs = get_vint r in
  let len = get_vint r in
  let start = r.pos and s = r.s in
  if len < 0 || len > String.length s - start then
    corrupt "root of %d bytes at byte %d overruns the input" len start;
  r.pos <- start + len;
  let root =
    lazy
      (let rr = { s; pos = start } in
       let n = get_node rr in
       if rr.pos <> start + len then
         corrupt "root of VLIW %d: %d bytes decoded of %d" id (rr.pos - start)
           len;
       n)
  in
  { id; precise_entry; is_entry; alu; mem; br; free_gprs; free_crs; root }

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)

let encode_xpage (p : Translate.xpage) =
  let b = Buffer.create 4096 and scratch = Buffer.create 256 in
  put_vint b p.base;
  put_vint b p.psize;
  put_vint b p.code_bytes;
  put_vint b p.next_addr;
  put_vint b p.insns_scheduled;
  put_vint b (Vec.length p.vliws);
  Vec.iteri
    (fun i v ->
      put_tree ~scratch b v;
      put_vint b (Vec.get p.addrs i);
      put_vint b (Vec.get p.sizes i))
    p.vliws;
  let entries =
    Hashtbl.fold (fun off id acc -> (off, id) :: acc) p.entries []
    |> List.sort compare
  in
  put_vint b (List.length entries);
  List.iter
    (fun (off, id) ->
      put_vint b off;
      put_vint b id)
    entries;
  Buffer.contents b

let decode_xpage s : Translate.xpage =
  let r = reader s in
  let base = get_vint r in
  let psize = get_vint r in
  if base < 0 || psize <= 0 then corrupt "bad page geometry";
  let code_bytes = get_vint r in
  let next_addr = get_vint r in
  let insns_scheduled = get_vint r in
  let nv = get_count r "vliw" in
  let vliws = Vec.create () and addrs = Vec.create () and sizes = Vec.create () in
  for _ = 1 to nv do
    Vec.push vliws (get_tree r);
    Vec.push addrs (get_vint r);
    Vec.push sizes (get_vint r)
  done;
  let ne = get_count r "entry" in
  let entries = Hashtbl.create (max 16 ne) in
  for _ = 1 to ne do
    let off = get_vint r in
    let id = get_vint r in
    if off < 0 || off >= psize then corrupt "entry offset %d out of page" off;
    if id < 0 || id >= nv then corrupt "entry VLIW id %d out of range" id;
    Hashtbl.replace entries off id
  done;
  if r.pos <> String.length s then
    corrupt "%d trailing bytes" (String.length s - r.pos);
  { base; psize; vliws; addrs; sizes; entries; code_bytes; next_addr;
    insns_scheduled }

(* ------------------------------------------------------------------ *)
(* The file frame and reader every durable store shares                *)

(* magic | version u8 | store header | payload_len vint
   | payload MD5 (16 raw bytes) | payload

   Each store writes and reads only its own header fields, through
   [header]; the checksum covers the payload. *)
let frame ~magic ~version ~header payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  put_u8 b version;
  header b;
  put_vint b (String.length payload);
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(** Check [s]'s frame and return [(header, payload)], or raise
    {!Corrupt}.  [fixed] counts the header bytes that must be present
    before the header is judged at all (the cache's entry-kind byte). *)
let unframe ~magic ~version ?(fixed = 0) ~header s =
  let mlen = String.length magic in
  if String.length s < mlen + 1 + fixed then corrupt "truncated header";
  if String.sub s 0 mlen <> magic then corrupt "bad magic";
  let v = Char.code s.[mlen] in
  if v <> version then corrupt "version %d (want %d)" v version;
  let r = { s; pos = mlen + 1 } in
  let h = header r in
  let plen = get_vint r in
  if plen < 0 || r.pos + 16 + plen <> String.length s then
    corrupt "payload length %d disagrees with file size" plen;
  let payload = String.sub s (r.pos + 16) plen in
  if Digest.string payload <> String.sub s r.pos 16 then
    corrupt "checksum mismatch";
  (h, payload)

(** Read the store file at [path] through [io] and [parse] it,
    classified once for every store: [`Missing]; [`Skipped] for a
    directory on the name ("is a directory") or an I/O error ("io:
    ..."); [`Fault] for a storage fault ("storage: ..."); [`Corrupt]
    when [parse] raises {!Corrupt}.  Each store decides what each
    outcome costs. *)
let read io path parse =
  if not (Sys.file_exists path) then `Missing
  else if try Sys.is_directory path with Sys_error _ -> false then
    `Skipped "is a directory"
  else
    match parse (io.Fsio.read_file path) with
    | v -> `Ok v
    | exception Corrupt msg -> `Corrupt msg
    | exception Sys_error msg -> `Skipped ("io: " ^ msg)
    | exception (Fsio.Fault _ as f) ->
      `Fault ("storage: " ^ Fsio.fault_message f)
