(* A small fully-parameterised TLB model, used for the ITLB that backs
   GO_ACROSS_PAGE (Section 3.4).  Like the caches it is timing-only:
   we count hits and misses; on a miss the VMM's "micro-interrupt"
   handler cost is charged by the caller. *)

type t = {
  entries : int;
  assoc : int;
  sets : int;
  tags : int array;
  stamp : int array;
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ?(assoc = 4) ~entries () =
  let sets = entries / assoc in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets must be a positive power of two";
  { entries; assoc; sets; tags = Array.make entries (-1);
    stamp = Array.make entries 0; tick = 0; accesses = 0; misses = 0 }

(** [touch t vpn] looks up virtual page number [vpn]; true on hit. *)
let touch t vpn =
  t.accesses <- t.accesses + 1;
  t.tick <- t.tick + 1;
  let base = (vpn land (t.sets - 1)) * t.assoc in
  let hit = Cache.lru_touch t.tags t.stamp ~base ~assoc:t.assoc ~tick:t.tick vpn in
  if not hit then t.misses <- t.misses + 1;
  hit

(** Drop every mapping (code modification, cast-out: Section 3.4). *)
let flush t = Array.fill t.tags 0 t.entries (-1)

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses
