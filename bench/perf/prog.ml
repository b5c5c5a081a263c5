(* The benchmark's input programs, each with the state the reference
   interpreter leaves behind, computed once in set-up.

   Memory images are kept sparse (only the 4 KiB pages that are not all
   zero): a fuzz program touches four or five of its 64 pages, so 512
   programs with their expected end states stay a few MiB instead of
   hundreds. *)

open Ppc
module Wl = Workloads.Wl

let page = 4096

(* [size] bytes as [Some contents] per non-zero page, [None] otherwise *)
type image = { size : int; pages : string option array }

let zero_page = String.make page '\000'

let image_of (b : Bytes.t) =
  let size = Bytes.length b in
  let n = (size + page - 1) / page in
  { size;
    pages =
      Array.init n (fun i ->
          let len = min page (size - (i * page)) in
          let s = Bytes.sub_string b (i * page) len in
          let zero = if len = page then zero_page else String.make len '\000' in
          if String.equal s zero then None else Some s) }

let instantiate img =
  let mem = Mem.create img.size in
  Array.iteri
    (fun i -> function Some s -> Mem.blit_string mem (i * page) s | None -> ())
    img.pages;
  mem

(* [b] from [off] holds exactly [s] (or zeros, for [None]) *)
let range_equal (b : Bytes.t) off len (s : string option) =
  let rec words i =
    if i + 8 > len then bytes i
    else
      let want = match s with Some s -> String.get_int64_ne s i | None -> 0L in
      Int64.equal (Bytes.get_int64_ne b (off + i)) want && words (i + 8)
  and bytes i =
    i >= len
    || Char.equal (Bytes.get b (off + i))
         (match s with Some s -> s.[i] | None -> '\000')
       && bytes (i + 1)
  in
  words 0

let image_matches img (b : Bytes.t) =
  Bytes.length b = img.size
  && (let ok = ref true and i = ref 0 in
      while !ok && !i < Array.length img.pages do
        let off = !i * page in
        ok := range_equal b off (min page (img.size - off)) img.pages.(!i);
        incr i
      done;
      !ok)

type t = {
  id : int;        (** index within its program set *)
  name : string;
  fuel : int;      (** the VMM's budget, as [Vmm.Run.run] gives it *)
  entry : int;
  initial : image;
  code : int;      (** expected exit code *)
  machine : Machine.t;
  final : image;
  console : string;
  insns : int;     (** base instructions the reference executed *)
}

(* PowerPC's invalid forms in this subset: the architecture leaves their
   effect undefined and compilers never emit them *)
let invalid_form : Insn.t -> bool = function
  | Lwzu (rt, ra, _) -> ra = 0 || ra = rt
  | Stwu (_, ra, _) -> ra = 0
  | Lmw (rt, ra, _) -> ra >= rt
  | _ -> false

(** What the reference run did, beyond its end state. *)
type facts = {
  exit_code : int;
  self_modifying : bool;  (** stored into a page it executed from *)
  invalid_forms : bool;   (** executed an invalid instruction form *)
}

(** Assemble [w] and run it on the reference interpreter.  [None] when
    the reference does not exit within the workload's fuel, or when
    [accept] refuses what it did. *)
let make ?(accept = fun _ -> true) id (w : Wl.t) =
  let mem, entry = Wl.instantiate w in
  let initial = Bytes.copy mem.bytes in
  let stored = Hashtbl.create 8 in
  mem.on_store <- Some (fun addr _ -> Hashtbl.replace stored (addr / page) ());
  let st = Machine.create () in
  st.pc <- entry;
  let it = Interp.create st mem in
  let exit = Interp.run it ~fuel:w.fuel in
  mem.on_store <- None;
  let executed f = Hashtbl.fold (fun pc () acc -> acc || f pc) it.touched false in
  let word pc = Int32.to_int (Bytes.get_int32_be initial pc) land 0xFFFF_FFFF in
  let facts exit_code =
    { exit_code;
      self_modifying = executed (fun pc -> Hashtbl.mem stored (pc / page));
      invalid_forms =
        executed (fun pc ->
            match Decode.decode (word pc) with
            | Some i -> invalid_form i
            | None -> false) }
  in
  match exit with
  | Some code when accept (facts code) ->
    Some
      { id; name = w.name; fuel = w.fuel * 2; entry; initial = image_of initial;
        code; machine = st; final = image_of mem.bytes;
        console = Mem.output mem; insns = it.icount }
  | Some _ | None -> None

(** A fresh copy of [p]'s memory, and a function that runs the reference
    interpreter on it (for timing the interpreter alone). *)
let reference p =
  let mem = instantiate p.initial in
  fun () ->
    let st = Machine.create () in
    st.pc <- p.entry;
    Interp.run (Interp.create st mem) ~fuel:(p.fuel / 2)

(** Does a finished run match the reference?  [Error] names the first
    check that failed. *)
let check p ~code ~(machine : Machine.t) ~(mem : Mem.t) =
  if code <> Some p.code then
    Error
      (Printf.sprintf "%s: exit %s, want %d" p.name
         (match code with Some c -> string_of_int c | None -> "fuel")
         p.code)
  else if not (Machine.equal machine p.machine) then
    Error (p.name ^ ": architected state diverged")
  else if not (image_matches p.final mem.bytes) then
    Error (p.name ^ ": memory diverged")
  else if Mem.output mem <> p.console then
    Error (p.name ^ ": console output diverged")
  else Ok ()

let registry names =
  List.mapi
    (fun i name ->
      match make i (Workloads.Registry.by_name name) with
      | Some p -> p
      | None -> failwith (name ^ ": reference run did not exit"))
    names
  |> Array.of_list

(* A fuzz program exits through the mini OS's exit syscall; the OS's
   unexpected-interrupt handlers halt with 0xDEADxxxx instead.  A store
   into code evicts the cache entry of that page, and when the page is
   the mini OS's, shared by every program, later programs miss it too:
   such programs would make the warm cache's contents depend on program
   order.  Invalid forms are undefined, so no output is right for them.
   The set leaves both out (about 2% and 1% of the programs that exit
   cleanly). *)
let exits_cleanly f =
  f.exit_code land 0xFFFF_0000 <> 0xDEAD_0000
  && (not f.self_modifying) && not f.invalid_forms

(** The first [count] generated programs of [seed], in index order, whose
    reference run exits through the exit syscall without storing into
    code or executing an invalid form (about one in four). *)
let fuzz ~seed ~count =
  let rec go index acc n =
    if n = count then Array.of_list (List.rev acc)
    else
      let rng = Random.State.make [| seed; index; 0 |] in
      let slots = Fault.Fuzz.gen_slots rng ~insns:96 ~allow_raw:true in
      let w = Fault.Fuzz.wl_of ~seed ~index ~fuel:20_000 slots in
      match make ~accept:exits_cleanly n w with
      | Some p -> go (index + 1) (p :: acc) (n + 1)
      | None -> go (index + 1) acc n
  in
  go 0 [] 0
