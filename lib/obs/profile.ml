(* The region profiler: a weighted cross-page control-flow graph.

   It answers "which pages are hot" and "how does control move
   *between* them", which is what the tier-2 region scheduler needs to
   pick a promotion unit.  Nodes are page bases carrying execution weight
   (entries, VLIWs, interpreted instructions, translation work); edges
   are {!Vmm.Monitor.Exit_edge} events — one counter per
   (src, dst, kind) triple.

   Page counters are sums, so they merge commutatively ({!merge}): the
   persistent store (Pstore) accumulates them across runs and across
   machines without ordering constraints.  Edge counters hold *per-run
   means*: a single-run profile's raw counts are trivially its per-run
   means, and {!merge} combines two profiles by run-weighted average —
   otherwise heat accumulated over hundreds of `daisy profile merge`s
   would grow without bound and promote regions that are cold in any
   individual run.  The weighted mean is symmetric (commutative) and
   associative up to integer rounding; promotion thresholds therefore
   read as per-run heat regardless of how many runs fed the profile.

   Hot regions: a region worth promoting is a *cycle* of pages — control
   that leaves a page and comes back is what page-at-a-time translation
   cannot schedule across.  {!regions} keeps edges at or above a heat
   threshold and returns the strongly connected components of the
   surviving graph that actually loop (≥ 2 pages, or a self-edge). *)

type edge_kind = Taken | Fall | Lr | Ctr | Gpr | Interp

let edge_kind_string = function
  | Taken -> "taken"
  | Fall -> "fall"
  | Lr -> "lr"
  | Ctr -> "ctr"
  | Gpr -> "gpr"
  | Interp -> "interp"

let edge_kind_code = function
  | Taken -> 0 | Fall -> 1 | Lr -> 2 | Ctr -> 3 | Gpr -> 4 | Interp -> 5

let edge_kind_of_code = function
  | 0 -> Some Taken | 1 -> Some Fall | 2 -> Some Lr | 3 -> Some Ctr
  | 4 -> Some Gpr | 5 -> Some Interp | _ -> None

type page = {
  base : int;
  mutable entries : int;         (** times control entered the page *)
  mutable vliws : int;           (** VLIWs executed while current *)
  mutable interp_insns : int;    (** instructions interpreted on it *)
  mutable translations : int;    (** times (re)translated *)
  mutable insns_scheduled : int; (** translation work, incl. redo *)
  mutable code_bytes : int;      (** translated bytes, last translation *)
}

type t = {
  page_size : int;
  pages : (int, page) Hashtbl.t;
  edges : (int * int * edge_kind, int ref) Hashtbl.t;
  mutable runs : int;        (** runs merged into this profile *)
  (* attribution state: the VMM reports the running VLIW count at every
     page switch, and the VLIWs executed since the last switch are
     credited to the page we were on *)
  mutable current : int;     (* -1 = none *)
  mutable vliws_at_switch : int;
}

let create ~page_size () =
  if page_size <= 0 then invalid_arg "Profile.create: page_size";
  { page_size; pages = Hashtbl.create 64; edges = Hashtbl.create 256;
    runs = 1; current = -1; vliws_at_switch = 0 }

let page t base =
  match Hashtbl.find_opt t.pages base with
  | Some p -> p
  | None ->
    let p =
      { base; entries = 0; vliws = 0; interp_insns = 0; translations = 0;
        insns_scheduled = 0; code_bytes = 0 }
    in
    Hashtbl.add t.pages base p;
    p

let page_base t addr = addr land lnot (t.page_size - 1)

(* --- feeding (Bridge calls these from Monitor events) --------------- *)

let enter t ~page:base ~vliws_so_far =
  if t.current >= 0 then begin
    let prev = page t t.current in
    prev.vliws <- prev.vliws + (vliws_so_far - t.vliws_at_switch)
  end;
  let p = page t base in
  p.entries <- p.entries + 1;
  t.current <- base;
  t.vliws_at_switch <- vliws_so_far

(** Credit the VLIWs executed since the last page switch; call once at
    the end of the run with the final total. *)
let flush t ~vliws_total =
  if t.current >= 0 then begin
    let p = page t t.current in
    p.vliws <- p.vliws + (vliws_total - t.vliws_at_switch);
    t.vliws_at_switch <- vliws_total
  end

let interp t ~pc ~insns =
  let p = page t (page_base t pc) in
  p.interp_insns <- p.interp_insns + insns

let translated t ~page:base ~insns ~bytes =
  let p = page t base in
  p.translations <- p.translations + 1;
  p.insns_scheduled <- p.insns_scheduled + insns;
  p.code_bytes <- bytes

let edge t ~src ~dst ~kind =
  (* materialize both endpoints so a page reached only through edges
     still appears in the node table *)
  ignore (page t src);
  ignore (page t dst);
  match Hashtbl.find_opt t.edges (src, dst, kind) with
  | Some c -> incr c
  | None -> Hashtbl.add t.edges (src, dst, kind) (ref 1)

let edge_n t ~src ~dst ~kind n =
  if n > 0 then begin
    ignore (page t src);
    ignore (page t dst);
    match Hashtbl.find_opt t.edges (src, dst, kind) with
    | Some c -> c := !c + n
    | None -> Hashtbl.add t.edges (src, dst, kind) (ref n)
  end

(* --- aggregate views ------------------------------------------------ *)

let pages_ranked t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pages []
  |> List.sort (fun (a : page) b ->
         compare (b.vliws + b.interp_insns, b.base)
           (a.vliws + a.interp_insns, a.base))

(** Edges as a flat list [(src, dst, kind, count)], heaviest first. *)
let edges_ranked t =
  Hashtbl.fold (fun (s, d, k) c acc -> (s, d, k, !c) :: acc) t.edges []
  |> List.sort (fun (s1, d1, _, c1) (s2, d2, _, c2) ->
         compare (c2, s1, d1) (c1, s2, d2))

let total_entries t =
  Hashtbl.fold (fun _ (p : page) acc -> acc + p.entries) t.pages 0

let total_edges t = Hashtbl.fold (fun _ c acc -> acc + !c) t.edges 0

(** Merge [src] into [into].  Page counters add; edge counters combine
    by run-weighted mean (round-to-nearest), keeping the "edge counts
    are per-run means" invariant so accumulated profiles never
    over-promote: an edge traversed 1000 times per run reads 1000
    whether one run or one hundred fed the profile.  Commutative;
    associative up to integer rounding.  Page sizes must agree; the
    store keys on page size for exactly this reason. *)
let merge ~into src =
  if into.page_size <> src.page_size then
    invalid_arg "Profile.merge: page sizes differ";
  Hashtbl.iter
    (fun base (p : page) ->
      let q = page into base in
      q.entries <- q.entries + p.entries;
      q.vliws <- q.vliws + p.vliws;
      q.interp_insns <- q.interp_insns + p.interp_insns;
      q.translations <- q.translations + p.translations;
      q.insns_scheduled <- q.insns_scheduled + p.insns_scheduled;
      q.code_bytes <- max q.code_bytes p.code_bytes)
    src.pages;
  let ri = into.runs and rs = src.runs in
  let total = ri + rs in
  let keys = Hashtbl.create (Hashtbl.length into.edges + Hashtbl.length src.edges) in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) into.edges;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) src.edges;
  let count tbl k = match Hashtbl.find_opt tbl k with Some c -> !c | None -> 0 in
  Hashtbl.iter
    (fun key () ->
      let ci = count into.edges key and cs = count src.edges key in
      let mean = ((ci * ri) + (cs * rs) + (total / 2)) / total in
      Hashtbl.remove into.edges key;
      if mean > 0 then Hashtbl.replace into.edges key (ref mean))
    keys;
  into.runs <- total

(* --- hot regions ---------------------------------------------------- *)

type region = {
  id : int;                    (** rank by heat: R0 is hottest *)
  rpages : int list;           (** member page bases, ascending *)
  internal_weight : int;       (** traversals of intra-region edges *)
  region_vliws : int;          (** VLIWs + interp insns of member pages *)
  region_entries : int;
  redges : (int * int * edge_kind * int) list;  (** internal, heaviest first *)
}

(* Tarjan's SCC over the thresholded edge graph.  Page graphs are tiny
   (a workload touches tens of pages), so the recursive formulation is
   fine. *)
let scc nodes succ =
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and next = ref 0 and comps = ref [] in
  let rec strong v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  !comps

(** Cyclic components of the edge graph restricted to edges traversed
    at least [threshold] times, hottest first. *)
let regions ?(threshold = 1) t =
  let hot =
    List.filter (fun (_, _, _, c) -> c >= threshold) (edges_ranked t)
  in
  let nodes =
    List.concat_map (fun (s, d, _, _) -> [ s; d ]) hot
    |> List.sort_uniq compare
  in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (s, d, _, _) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj s) in
      if not (List.mem d cur) then Hashtbl.replace adj s (d :: cur))
    hot;
  let succ v = Option.value ~default:[] (Hashtbl.find_opt adj v) in
  let comps = scc nodes succ in
  let self_loop v = List.exists (fun (s, d, _, _) -> s = v && d = v) hot in
  let cyclic =
    List.filter
      (function [ v ] -> self_loop v | c -> List.length c >= 2)
      comps
  in
  let mk members =
    let members = List.sort compare members in
    let inside v = List.mem v members in
    let redges =
      List.filter (fun (s, d, _, _) -> inside s && inside d) hot
    in
    let internal_weight =
      List.fold_left (fun acc (_, _, _, c) -> acc + c) 0 redges
    in
    let region_vliws, region_entries =
      List.fold_left
        (fun (v, e) base ->
          match Hashtbl.find_opt t.pages base with
          | Some p -> (v + p.vliws + p.interp_insns, e + p.entries)
          | None -> (v, e))
        (0, 0) members
    in
    { id = 0; rpages = members; internal_weight; region_vliws;
      region_entries; redges }
  in
  List.map mk cyclic
  |> List.sort (fun a b ->
         compare (b.internal_weight, b.region_vliws)
           (a.internal_weight, a.region_vliws))
  |> List.mapi (fun i r -> { r with id = i })

(* --- exports -------------------------------------------------------- *)

let page_json (p : page) =
  Json.Obj
    [ ("base", Json.Int p.base); ("entries", Json.Int p.entries);
      ("vliws", Json.Int p.vliws);
      ("interp_insns", Json.Int p.interp_insns);
      ("translations", Json.Int p.translations);
      ("insns_scheduled", Json.Int p.insns_scheduled);
      ("code_bytes", Json.Int p.code_bytes) ]

let edge_json (s, d, k, c) =
  Json.Obj
    [ ("src", Json.Int s); ("dst", Json.Int d);
      ("kind", Json.Str (edge_kind_string k)); ("count", Json.Int c) ]

let region_json (r : region) =
  Json.Obj
    [ ("id", Json.Int r.id);
      ("pages", Json.Arr (List.map (fun b -> Json.Int b) r.rpages));
      ("internal_weight", Json.Int r.internal_weight);
      ("vliws", Json.Int r.region_vliws);
      ("entries", Json.Int r.region_entries);
      ("edges", Json.Arr (List.map edge_json r.redges)) ]

let to_json ?(threshold = 1) t =
  Json.Obj
    [ ("page_size", Json.Int t.page_size);
      ("runs", Json.Int t.runs);
      ("entries_total", Json.Int (total_entries t));
      ("edges_total", Json.Int (total_edges t));
      ("pages", Json.Arr (List.map page_json (pages_ranked t)));
      ("edges", Json.Arr (List.map edge_json (edges_ranked t)));
      ("regions",
       Json.Arr (List.map region_json (regions ~threshold t))) ]

(** Collapsed-stack ("folded") export for speedscope / inferno
    flamegraph tools: one line per page, [region_N;page_0xBASE WEIGHT]
    with pages outside every hot region filed under [cold].  Weight is
    execution cycles attributed to the page (VLIWs + interpreted
    instructions). *)
let to_collapsed ?(threshold = 1) t =
  let rs = regions ~threshold t in
  let owner = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          if not (Hashtbl.mem owner b) then Hashtbl.replace owner b r.id)
        r.rpages)
    rs;
  let b = Buffer.create 1024 in
  List.iter
    (fun (p : page) ->
      let w = p.vliws + p.interp_insns in
      if w > 0 then begin
        let stack =
          match Hashtbl.find_opt owner p.base with
          | Some id -> Printf.sprintf "region_%d;page_0x%04X" id p.base
          | None -> Printf.sprintf "cold;page_0x%04X" p.base
        in
        Buffer.add_string b (Printf.sprintf "%s %d\n" stack w)
      end)
    (List.sort (fun (a : page) b -> compare a.base b.base)
       (Hashtbl.fold (fun _ p acc -> p :: acc) t.pages []));
  Buffer.contents b
