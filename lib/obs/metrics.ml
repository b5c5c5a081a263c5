(* The metrics registry: named counters, gauges and fixed-bucket
   histograms, exportable as JSON.

   Overhead discipline: a counter increment is one atomic fetch-and-add
   and a histogram observation is one linear bucket scan under a
   per-histogram mutex — but more importantly, nothing in the VMM or
   translator touches a registry unless a sink is explicitly attached
   (see Bridge), so the disabled cost is zero allocations and one
   [None] test per instrumented site.

   Domain safety: nothing stops two domains from sharing one registry,
   so each primitive is safe on its own: counters and gauges are
   atomics, histograms take their own mutex per observation, and the
   registry structure (registration, lookup, export) is guarded by a
   registry-level mutex. *)

module Counter = struct
  type t = { name : string; help : string; value : int Atomic.t }

  let inc t = Atomic.incr t.value
  let add t n = ignore (Atomic.fetch_and_add t.value n)
  let set t v = Atomic.set t.value v
  let value t = Atomic.get t.value
end

module Gauge = struct
  type t = { name : string; help : string; value : float Atomic.t }

  let set t v = Atomic.set t.value v
  let value t = Atomic.get t.value
end

module Histogram = struct
  (* [bounds] are inclusive upper bucket bounds in ascending order;
     [counts] carries one extra overflow bucket at the end.  [sum],
     [count] and the bucket slots move together, so observations and
     quantile reads serialize on [lock]. *)
  type t = {
    name : string;
    help : string;
    bounds : float array;
    counts : int array;
    mutable sum : float;
    mutable count : int;
    lock : Mutex.t;
  }

  let observe t v =
    let rec find i =
      if i >= Array.length t.bounds then i
      else if v <= t.bounds.(i) then i
      else find (i + 1)
    in
    let i = find 0 in
    Mutex.lock t.lock;
    t.counts.(i) <- t.counts.(i) + 1;
    t.sum <- t.sum +. v;
    t.count <- t.count + 1;
    Mutex.unlock t.lock

  let observe_int t v = observe t (float_of_int v)

  (* Quantile estimation from the bucket counts: walk the cumulative
     distribution to the bucket holding rank [q * count], then
     interpolate linearly inside it (observations are non-negative, so
     the first bucket's lower edge is 0).  The overflow bucket has no
     upper edge; its estimate clamps to the largest finite bound —
     conservative, and a signal the buckets are too small. *)
  let quantile_locked t q =
    if t.count = 0 then None
    else begin
      let nb = Array.length t.bounds in
      let target = q *. float_of_int t.count in
      let rec walk i cum =
        let here = cum + t.counts.(i) in
        if float_of_int here >= target || i >= nb then (i, cum)
        else walk (i + 1) here
      in
      let i, below = walk 0 0 in
      if i >= nb then
        Some (if nb = 0 then t.sum /. float_of_int t.count else t.bounds.(nb - 1))
      else begin
        let lo = if i = 0 then 0.0 else t.bounds.(i - 1) in
        let hi = t.bounds.(i) in
        let inside = t.counts.(i) in
        if inside = 0 then Some hi
        else
          Some
            (lo
            +. (hi -. lo)
               *. ((target -. float_of_int below) /. float_of_int inside))
      end
    end

  let quantile t q =
    Mutex.lock t.lock;
    let r = quantile_locked t q in
    Mutex.unlock t.lock;
    r
end

type t = {
  (* reverse creation order; exports re-reverse *)
  mutable counters : Counter.t list;
  mutable gauges : Gauge.t list;
  mutable histograms : Histogram.t list;
  names : (string, unit) Hashtbl.t;
  lock : Mutex.t;  (* guards registration, lookup and export *)
}

let create () =
  { counters = []; gauges = []; histograms = [];
    names = Hashtbl.create 16; lock = Mutex.create () }

let register_locked t name =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %S" name);
  Hashtbl.add t.names name ()

let counter t ?(help = "") name =
  Mutex.lock t.lock;
  match
    register_locked t name;
    let c = { Counter.name; help; value = Atomic.make 0 } in
    t.counters <- c :: t.counters;
    c
  with
  | c -> Mutex.unlock t.lock; c
  | exception e -> Mutex.unlock t.lock; raise e

let gauge t ?(help = "") name =
  Mutex.lock t.lock;
  match
    register_locked t name;
    let g = { Gauge.name; help; value = Atomic.make 0.0 } in
    t.gauges <- g :: t.gauges;
    g
  with
  | g -> Mutex.unlock t.lock; g
  | exception e -> Mutex.unlock t.lock; raise e

let histogram t ?(help = "") ~buckets name =
  Mutex.lock t.lock;
  match
    register_locked t name;
    let bounds = Array.of_list buckets in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly ascending")
      bounds;
    let h =
      { Histogram.name; help; bounds;
        counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0;
        lock = Mutex.create () }
    in
    t.histograms <- h :: t.histograms;
    h
  with
  | h -> Mutex.unlock t.lock; h
  | exception e -> Mutex.unlock t.lock; raise e

let find_counter t name =
  Mutex.lock t.lock;
  let r = List.find_opt (fun (c : Counter.t) -> c.name = name) t.counters in
  Mutex.unlock t.lock;
  r

(* Exports are in sorted-name order, not creation order: diffs between
   two exports line up, and consumers can binary-search. *)
let to_json t =
  Mutex.lock t.lock;
  let lcounters = t.counters and lgauges = t.gauges in
  let lhistograms = t.histograms in
  Mutex.unlock t.lock;
  let by_name name l = List.sort (fun a b -> compare (name a) (name b)) l in
  let counters =
    by_name (fun (c : Counter.t) -> c.name) lcounters
    |> List.map (fun (c : Counter.t) -> (c.name, Json.Int (Counter.value c)))
  in
  let gauges =
    by_name (fun (g : Gauge.t) -> g.name) lgauges
    |> List.map (fun (g : Gauge.t) -> (g.name, Json.Float (Gauge.value g)))
  in
  let hist (h : Histogram.t) =
    (* snapshot the whole histogram under its own lock so buckets, sum
       and quantiles are mutually consistent *)
    Mutex.lock h.lock;
    let counts = Array.copy h.counts in
    let sum = h.sum and count = h.count in
    let q p =
      match Histogram.quantile_locked h p with
      | Some v -> Json.Float v
      | None -> Json.Null
    in
    let p50 = q 0.5 and p90 = q 0.9 and p99 = q 0.99 in
    Mutex.unlock h.lock;
    let buckets =
      List.init (Array.length counts) (fun i ->
          let le =
            if i < Array.length h.bounds then Json.Float h.bounds.(i)
            else Json.Str "inf"
          in
          Json.Obj [ ("le", le); ("count", Json.Int counts.(i)) ])
    in
    ( h.name,
      Json.Obj
        [ ("buckets", Json.Arr buckets); ("sum", Json.Float sum);
          ("count", Json.Int count); ("p50", p50); ("p90", p90);
          ("p99", p99) ] )
  in
  Json.Obj
    [ ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms",
       Json.Obj
         (by_name (fun (h : Histogram.t) -> h.name) lhistograms
         |> List.map hist)) ]
