(* A set-associative cache model with LRU replacement.

   Timing-only: it tracks tags, not data.  Geometry matches the paper's
   Chapter 5 configurations (size, associativity, line size); accesses
   report hit or miss and maintain the usual statistics. *)

type t = {
  name : string;
  line : int;        (** line size, bytes (power of two) *)
  assoc : int;
  sets : int;
  tags : int array;  (** sets * assoc entries; -1 = invalid *)
  stamp : int array; (** LRU timestamps *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

(** [create ~name ~size ~assoc ~line] builds a cache of [size] bytes. *)
let create ~name ~size ~assoc ~line =
  let sets = size / (assoc * line) in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  { name; line; assoc; sets; tags = Array.make (sets * assoc) (-1);
    stamp = Array.make (sets * assoc) 0; tick = 0; accesses = 0; misses = 0 }

let line_of t addr = addr / t.line

(* One LRU lookup of [key] in the set of [assoc] ways at [base] of
   [tags]/[stamp], at time [tick]: a hit refreshes the way's stamp, a
   miss replaces the least recently used way.  Shared with {!Tlb}.  The
   way is found by a loop, not a local closure returning an option, so
   a probe allocates nothing. *)
let lru_touch tags stamp ~base ~assoc ~tick key =
  let w = ref 0 in
  while !w < assoc && tags.(base + !w) <> key do incr w done;
  if !w < assoc then begin
    stamp.(base + !w) <- tick;
    true
  end
  else begin
    let victim = ref 0 in
    for w = 1 to assoc - 1 do
      if stamp.(base + w) < stamp.(base + !victim) then victim := w
    done;
    tags.(base + !victim) <- key;
    stamp.(base + !victim) <- tick;
    false
  end

(** [touch t addr] accesses the line containing [addr]; returns [true]
    on hit.  On miss the line is filled, evicting the LRU way. *)
let touch t addr =
  t.accesses <- t.accesses + 1;
  t.tick <- t.tick + 1;
  let lineno = line_of t addr in
  let base = (lineno land (t.sets - 1)) * t.assoc in
  let hit = lru_touch t.tags t.stamp ~base ~assoc:t.assoc ~tick:t.tick lineno in
  if not hit then t.misses <- t.misses + 1;
  hit

(** Touch every line overlapped by [addr, addr+bytes); true if all hit. *)
let touch_range t addr bytes =
  let first = line_of t addr and last = line_of t (addr + bytes - 1) in
  let hit = ref true in
  for l = first to last do
    if not (touch t (l * t.line)) then hit := false
  done;
  !hit

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.tick <- 0;
  t.accesses <- 0;
  t.misses <- 0
