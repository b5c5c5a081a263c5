(* The persistent profile store: region profiles that survive the run.

   DAISY's amortisation argument (§5.1) — translation pays for itself
   over re-execution — extends across process lifetimes only if the
   heat measurements do too, and fleet-style migration tooling (see
   PAPERS.md) merges profiles from many machines.  So profiles are kept
   on disk in the translation cache's codec style and merge
   commutatively: [accumulate] folds a fresh run into whatever is
   already there, and [merge_dirs] combines whole directories.

   One file per (frontend × fingerprint), named by the hex digest of
   both.  The fingerprint is the workload image digest plus the page
   size: edges are page-granular, so profiles taken at different page
   sizes describe different graphs and must not merge (page size is the
   one translation parameter that changes the *shape* of the profile
   rather than its weights).

   File layout: the one store frame ({!Tcache.Codec.frame}), with the
   front end and fingerprint as this store's header:

     magic "DPRF" | version u8
     | frontend str | fingerprint str
     | payload_len vint | payload MD5 (16 raw bytes) | payload

   payload:
     page_size vint | runs vint
     | npages vint | (base entries vliws interp_insns
                      translations insns_scheduled code_bytes)*
     | nedges vint | (src dst kind_u8 count)*

   Crash safety mirrors Tcache.Store: writes go through {!Fsio.commit}
   (temp write, file fsync, rename, directory fsync), and orphaned
   [*.tmp] files from a killed writer are swept when the store is
   opened.  Storage faults ({!Fsio.Fault}) degrade rather than raise:
   a failed save parks the profile in memory — the run's heat data
   stays mergeable for this process, only durability is lost — and a
   faulted load serves that in-memory copy when one exists.  The
   [degraded] counter records every absorbed fault. *)

module Codec = Tcache.Codec

let magic = "DPRF"
let version = 1
let suffix = ".dpf"

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let encode ~frontend ~fingerprint (p : Profile.t) =
  let pl = Buffer.create 1024 in
  Codec.put_vint pl p.page_size;
  Codec.put_vint pl p.runs;
  let pages =
    Hashtbl.fold (fun _ (q : Profile.page) acc -> q :: acc) p.pages []
    |> List.sort (fun (a : Profile.page) b -> compare a.base b.base)
  in
  Codec.put_vint pl (List.length pages);
  List.iter
    (fun (q : Profile.page) ->
      Codec.put_vint pl q.base;
      Codec.put_vint pl q.entries;
      Codec.put_vint pl q.vliws;
      Codec.put_vint pl q.interp_insns;
      Codec.put_vint pl q.translations;
      Codec.put_vint pl q.insns_scheduled;
      Codec.put_vint pl q.code_bytes)
    pages;
  let edges =
    Hashtbl.fold (fun k c acc -> (k, !c) :: acc) p.edges []
    |> List.sort compare
  in
  Codec.put_vint pl (List.length edges);
  List.iter
    (fun ((src, dst, kind), count) ->
      Codec.put_vint pl src;
      Codec.put_vint pl dst;
      Codec.put_u8 pl (Profile.edge_kind_code kind);
      Codec.put_vint pl count)
    edges;
  Codec.frame ~magic ~version (Buffer.contents pl) ~header:(fun b ->
      Codec.put_str b frontend;
      Codec.put_str b fingerprint)

(** Decode a whole profile file; returns [(frontend, fingerprint,
    profile)] or raises {!Tcache.Codec.Corrupt} on anything malformed —
    wrong magic, future version, checksum mismatch, implausible
    counts. *)
let decode s =
  let (frontend, fingerprint), payload =
    Codec.unframe ~magic ~version s ~header:(fun r ->
        let frontend = Codec.get_str r in
        (frontend, Codec.get_str r))
  in
  let r = Codec.reader payload in
  let page_size = Codec.get_vint r in
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    Codec.corrupt "bad page size %d" page_size;
  let runs = Codec.get_vint r in
  if runs < 0 then Codec.corrupt "negative run count";
  let p = Profile.create ~page_size () in
  p.runs <- runs;
  let npages = Codec.get_count r "page" in
  for _ = 1 to npages do
    let base = Codec.get_vint r in
    if base < 0 || base land (page_size - 1) <> 0 then
      Codec.corrupt "page base 0x%X not %d-aligned" base page_size;
    let q = Profile.page p base in
    let field what v = if v < 0 then Codec.corrupt "negative %s" what; v in
    q.entries <- field "entries" (Codec.get_vint r);
    q.vliws <- field "vliws" (Codec.get_vint r);
    q.interp_insns <- field "interp_insns" (Codec.get_vint r);
    q.translations <- field "translations" (Codec.get_vint r);
    q.insns_scheduled <- field "insns_scheduled" (Codec.get_vint r);
    q.code_bytes <- field "code_bytes" (Codec.get_vint r)
  done;
  let nedges = Codec.get_count r "edge" in
  for _ = 1 to nedges do
    let src = Codec.get_vint r in
    let dst = Codec.get_vint r in
    let kind =
      match Profile.edge_kind_of_code (Codec.get_u8 r) with
      | Some k -> k
      | None -> Codec.corrupt "bad edge kind"
    in
    let count = Codec.get_vint r in
    if count <= 0 then Codec.corrupt "non-positive edge count";
    if src < 0 || dst < 0 then Codec.corrupt "negative edge endpoint";
    Profile.edge_n p ~src ~dst ~kind count
  done;
  if r.pos <> String.length payload then
    Codec.corrupt "%d trailing payload bytes" (String.length payload - r.pos);
  (frontend, fingerprint, p)

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

type t = {
  dir : string;
  frontend : string;
  fingerprint : string;
  swept_tmp : int;
      (** orphaned temp files from a killed writer, removed at open *)
  io : Fsio.t;
  mutable mem_profile : Profile.t option;
      (** the lossy in-memory fallback: the last profile a storage
          fault kept off the disk *)
  mutable degraded : int;
      (** storage faults absorbed by degrading to memory *)
}

(** Open (creating if needed) the profile store in [dir].  Sweeps
    orphaned temp files, like the translation cache.  Raises
    [Sys_error] or {!Fsio.Fault} if the directory cannot be created. *)
let open_store ?(io = Fsio.real) ~dir ~frontend ~fingerprint () =
  Fsio.mkdir_p Fsio.real dir;
  let swept_tmp = Fsio.sweep_tmp io dir in
  { dir; frontend; fingerprint; swept_tmp; io; mem_profile = None;
    degraded = 0 }

(** Storage faults this store absorbed by degrading to memory. *)
let degraded_count t = t.degraded

let key t =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ t.frontend; t.fingerprint ]))

let path t = Filename.concat t.dir (key t ^ suffix)

type probe_result =
  [ `Hit of Profile.t
  | `Miss
  | `Corrupt of string
  | `Skipped of string ]

let load t : probe_result =
  let from_memory otherwise =
    match t.mem_profile with Some p -> `Hit p | None -> otherwise
  in
  match
    Codec.read t.io (path t) (fun s ->
        let frontend, fingerprint, p = decode s in
        if frontend <> t.frontend || fingerprint <> t.fingerprint then
          Codec.corrupt "fingerprint mismatch";
        p)
  with
  | `Ok p -> `Hit p
  | `Missing -> from_memory `Miss
  | (`Corrupt _ | `Skipped _) as r -> r
  | `Fault msg ->
    (* storage fault, not a bad entry: degrade to the in-memory copy
       when one exists, report skipped otherwise *)
    t.degraded <- t.degraded + 1;
    from_memory (`Skipped msg)

(** Write [p] as this store's entry, atomically ({!Fsio.commit}).  A
    storage fault keeps [p] in memory instead of raising — the heat
    data survives for this process, durability is lost.  Returns the
    encoded size in bytes. *)
let save t (p : Profile.t) =
  let bytes = encode ~frontend:t.frontend ~fingerprint:t.fingerprint p in
  (match Fsio.commit t.io ~dir:t.dir ~file:(key t ^ suffix) bytes with
  | () -> t.mem_profile <- None
  | exception Fsio.Fault _ ->
    t.degraded <- t.degraded + 1;
    t.mem_profile <- Some p);
  String.length bytes

(** Fold a fresh run's profile into the on-disk entry (merge with
    whatever is there; a corrupt entry is replaced).  Returns the merged
    profile and the entry size written. *)
let accumulate t (p : Profile.t) =
  let merged =
    match load t with
    | `Hit prev ->
      Profile.merge ~into:prev p;
      prev
    | `Miss | `Corrupt _ | `Skipped _ -> p
  in
  let bytes = save t merged in
  (merged, bytes)

(* ------------------------------------------------------------------ *)
(* Directory tools (daisy profile merge)                               *)

(** Merge every profile in [srcs] into [into] (created if missing):
    entries with the same key are summed, new keys are copied.  Corrupt,
    alien or unreadable files (a storage fault included) are skipped,
    never fatal.  Returns
    [(merged_entries, skipped_files)]. *)
let merge_dirs ~into srcs =
  Fsio.mkdir_p Fsio.real into;
  ignore (Fsio.sweep_tmp Fsio.real into);
  let merged = ref 0 and skipped = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun f ->
          match Codec.read Fsio.real (Filename.concat src f) decode with
          | `Missing | `Corrupt _ | `Skipped _ | `Fault _ -> incr skipped
          | `Ok (frontend, fingerprint, p) ->
            let t =
              { dir = into; frontend; fingerprint; swept_tmp = 0;
                io = Fsio.real; mem_profile = None; degraded = 0 }
            in
            (match load t with
            | `Hit prev ->
              (* merge is commutative: direction only picks which
                 in-memory object survives *)
              Profile.merge ~into:prev p;
              ignore (save t prev)
            | `Miss | `Corrupt _ | `Skipped _ -> ignore (save t p));
            incr merged)
        (Fsio.files_with_suffix src suffix))
    srcs;
  (!merged, !skipped)
