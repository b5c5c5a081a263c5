(* Common workload infrastructure: the miniature base OS, the syscall
   conventions, and the workload type the harness consumes.

   Every workload is a complete bare-metal base-architecture program:
   the OS's first-level interrupt handlers live at the architected
   vectors (and run *translated*, like everything else), programs exit
   and print through [sc], and input data is placed in memory by an
   [init] function after assembly. *)

open Ppc

(* Memory map (code and data deliberately on disjoint pages, so stores
   never invalidate translations of the code being run):
   0x00300..        interrupt vectors (mini OS)
   0x01000..0x0EFFF program text
   0x1F000..        tables/class maps
   0x20000..        primary input data
   0x28000..        secondary input data
   0x2C000..        output buffers
   0x30000..        scratch (hash tables, explicit stacks) *)

let text_base = 0x1000
let table_base = 0x1F000

(** Where the mini OS counts external interrupts (one word).  It is the
    only architected footprint a transparent interrupt leaves, so the
    differential check expects it to exceed the reference's by exactly
    the number of interrupts delivered. *)
let interrupt_count_addr = table_base + 0xF00
let data_base = 0x20000
let data2_base = 0x28000
let out_base = 0x2C000
let scratch_base = 0x30000
let default_mem_size = 0x40000

type t = {
  name : string;
  description : string;
  build : Asm.t -> unit;          (** program text; must define "main" *)
  init : Mem.t -> Asm.labels -> unit;  (** fill input data after assembly *)
  mem_size : int;
  fuel : int;                     (** base-instruction budget *)
}

(** Exit with the value in r3 (syscall 0). *)
let sys_exit a =
  Asm.li a 0 0;
  Asm.ins a Sc

(** Print the low byte of r3 (syscall 1). *)
let sys_putchar a =
  Asm.li a 0 1;
  Asm.ins a Sc

(* The mini OS.  Handlers clobber nothing: scratch registers are saved
   in SPRG0/SPRG1.  Unexpected interrupts halt with a recognizable
   code. *)
let dead a code =
  Asm.li32 a 3 code;
  Asm.halt a ~scratch:4 3

let mini_os a =
  Asm.org a Interp.Vector.dsi;
  dead a 0xDEAD0300;
  Asm.org a Interp.Vector.isi;
  dead a 0xDEAD0400;
  Asm.org a Interp.Vector.external_;
  (* count external interrupts at [interrupt_count_addr], resume *)
  Asm.ins a (Mtspr (SPRG0, 29));
  Asm.ins a (Mtspr (SPRG1, 30));
  Asm.li32 a 29 interrupt_count_addr;
  Asm.lwz a 30 29 0;
  Asm.addi a 30 30 1;
  Asm.stw a 30 29 0;
  Asm.ins a (Mfspr (29, SPRG0));
  Asm.ins a (Mfspr (30, SPRG1));
  Asm.ins a Rfi;
  Asm.org a Interp.Vector.program;
  dead a 0xDEAD0700;
  Asm.org a Interp.Vector.syscall;
  (* r0 = 0: exit(r3); r0 = 1: putchar(r3) *)
  Asm.cmpwi ~cr:7 a 0 0;
  Asm.bc ~cr:7 a Asm.Ne "os_putchar";
  Asm.halt a ~scratch:4 3;
  Asm.label a "os_putchar";
  Asm.ins a (Mtspr (SPRG0, 29));
  Asm.li32 a 29 Mem.mmio_putchar;
  Asm.stw a 3 29 0;
  Asm.ins a (Mfspr (29, SPRG0));
  Asm.ins a Rfi

(** Assemble a workload into a fresh memory image; returns the memory
    and the entry address. *)
let instantiate (w : t) =
  let mem = Mem.create w.mem_size in
  let a = Asm.create () in
  mini_os a;
  Asm.org a text_base;
  w.build a;
  let labels = Asm.assemble a mem in
  w.init mem labels;
  (mem, Hashtbl.find labels "main")

(** Write [s] at [addr] preceded by its length word at [addr]-4...
    actually: length word at [addr], bytes from [addr+4]. *)
let put_sized_string mem addr s =
  Mem.store32 mem addr (String.length s);
  Mem.blit_string mem (addr + 4) s

let put_int_array mem addr arr =
  Array.iteri (fun i v -> Mem.store32 mem (addr + (4 * i)) v) arr
