(* Simulated physical memory of the base architecture.

   Byte-addressable, big-endian, with a small memory-mapped I/O window
   used by the miniature base OS (halt and console output), and a store
   hook through which the VMM watches for writes into pages whose
   translation it holds (the per-unit read-only bit of Section 3.2). *)

(** Raised by a store to the HALT MMIO word; carries the exit code. *)
exception Halted of int

(** Raised on an access outside implemented memory (the base
    architecture's data storage interrupt). [write] distinguishes store
    faults from load faults. *)
exception Data_fault of { addr : int; write : bool }

(** Base of the memory-mapped I/O window.  Loads from this window are
    side-effecting and must not be performed speculatively. *)
let mmio_base = 0x0FFF_F000

let mmio_halt = mmio_base
let mmio_putchar = mmio_base + 4

(** A monotonically increasing sequence register: each load returns the
    previous value plus one.  Exists to verify that speculative loads
    from I/O space are deferred and re-executed exactly once. *)
let mmio_seq = mmio_base + 8

type t = {
  bytes : Bytes.t;
  size : int;
  out : Buffer.t;  (** console output accumulated via [mmio_putchar] *)
  mutable seq : int;
  mutable on_store : (int -> int -> unit) option;
      (** called as [f addr nbytes] before every ordinary store; every
          watcher, composed by {!watch} *)
}

let create size =
  { bytes = Bytes.make size '\000'; size; out = Buffer.create 256; seq = 0;
    on_store = None }

(** Add a store watcher, called after every earlier one. *)
let watch t f =
  t.on_store <-
    Some (match t.on_store with None -> f | Some g -> fun a n -> g a n; f a n)

let size t = t.size
let output t = Buffer.contents t.out

let is_mmio addr = addr >= mmio_base && addr < mmio_base + 0x1000

let in_bounds t addr n = addr >= 0 && addr + n <= t.size

let width_bytes : Insn.width -> int = function Byte -> 1 | Half -> 2 | Word -> 4

(* One decode rule for all widths: MMIO registers are word-sized, so a
   load of any width whose enclosing word is the sequence register ticks
   it once and returns the new value masked to the load's width; every
   other MMIO load reads as 0.  (The three loaders used to disagree —
   [load8] accepted any byte of the seq word, [load16] always returned
   0, [load32] required exact equality — so a halfword read of the seq
   register silently dropped the side effect.) *)
let mmio_load t addr mask =
  if addr land lnot 3 = mmio_seq then (
    t.seq <- t.seq + 1;
    t.seq land mask)
  else 0

(** [load8 t addr] .. [load32 t addr]: big-endian zero-extended loads. *)
let load8 t addr =
  if is_mmio addr then mmio_load t addr 0xFF
  else if in_bounds t addr 1 then Char.code (Bytes.get t.bytes addr)
  else raise (Data_fault { addr; write = false })

let load16 t addr =
  if is_mmio addr then mmio_load t addr 0xFFFF
  else if in_bounds t addr 2 then Bytes.get_uint16_be t.bytes addr
  else raise (Data_fault { addr; write = false })

let load32 t addr =
  if is_mmio addr then mmio_load t addr 0xFFFF_FFFF
  else if in_bounds t addr 4 then
    Int32.to_int (Bytes.get_int32_be t.bytes addr) land 0xFFFF_FFFF
  else raise (Data_fault { addr; write = false })

let store8 t addr v =
  if is_mmio addr then (
    if addr = mmio_putchar + 3 then Buffer.add_char t.out (Char.chr (v land 0xFF)))
  else if in_bounds t addr 1 then (
    (match t.on_store with Some f -> f addr 1 | None -> ());
    Bytes.set t.bytes addr (Char.chr (v land 0xFF)))
  else raise (Data_fault { addr; write = true })

let store16 t addr v =
  if is_mmio addr then ()
  else if in_bounds t addr 2 then (
    (match t.on_store with Some f -> f addr 2 | None -> ());
    Bytes.set_uint16_be t.bytes addr (v land 0xFFFF))
  else raise (Data_fault { addr; write = true })

let store32 t addr v =
  if is_mmio addr then (
    if addr = mmio_halt then raise (Halted (v land 0xFFFF_FFFF))
    else if addr = mmio_putchar then Buffer.add_char t.out (Char.chr (v land 0xFF)))
  else if in_bounds t addr 4 then (
    (match t.on_store with Some f -> f addr 4 | None -> ());
    Bytes.set_int32_be t.bytes addr (Int32.of_int v))
  else raise (Data_fault { addr; write = true })

(** [load t w addr] is the zero-extended value of width [w] at [addr]. *)
let load t (w : Insn.width) addr =
  match w with Byte -> load8 t addr | Half -> load16 t addr | Word -> load32 t addr

let store t (w : Insn.width) addr v =
  match w with Byte -> store8 t addr v | Half -> store16 t addr v | Word -> store32 t addr v

(** [fetch t addr] is the 32-bit instruction word at [addr] (which must
    be word aligned); raises [Data_fault] outside memory. *)
let fetch t addr =
  if addr land 3 <> 0 || not (in_bounds t addr 4) then
    raise (Data_fault { addr; write = false })
  else Int32.to_int (Bytes.get_int32_be t.bytes addr) land 0xFFFF_FFFF

(** [store_insn t addr insn] assembles [insn] into memory at [addr]. *)
let store_insn t addr insn =
  Bytes.set_int32_be t.bytes addr (Int32.of_int (Encode.encode insn))

(** [blit_string t addr s] copies [s] into memory starting at [addr]. *)
let blit_string t addr s =
  Bytes.blit_string s 0 t.bytes addr (String.length s)

let read_string t addr len = Bytes.sub_string t.bytes addr len
