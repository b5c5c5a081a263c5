(* The benchmark's one clock and its span recorder.

   Every interval the benchmark reports is a difference of
   [Monotonic_clock.now] readings (CLOCK_MONOTONIC, nanoseconds).  Spans
   are kept in memory while the traced pass runs and are summarised or
   written out only after it ends.  A span names its layer as the prefix
   of its name ("translator.translate" is in layer "translator"), carries
   the request it belongs to (a program index or a session id) and the
   minor-heap words the running domain allocated inside it. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let words () = Gc.minor_words ()

type t = {
  name : string;
  req : int;
  t0 : int;       (** ns *)
  t1 : int;
  words : float;  (** minor words allocated between t0 and t1 *)
}

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Spans come from the main thread and from pool domains at once. *)
type recorder = {
  mutable spans : t list;
  lock : Mutex.t;
  events : int Atomic.t;  (** monitor events seen while recording *)
}

let recorder () =
  { spans = []; lock = Mutex.create (); events = Atomic.make 0 }

let add r s =
  Mutex.lock r.lock;
  r.spans <- s :: r.spans;
  Mutex.unlock r.lock

let spans r = List.rev r.spans

(** Record [f ()] as span [name] of request [req]. *)
let timed r ~name ~req f =
  let w0 = words () and t0 = now () in
  let v = f () in
  add r { name; req; t0; t1 = now (); words = words () -. w0 };
  v

type self = {
  count : int;
  total_ns : int;     (** summed span durations *)
  self_ns : int;      (** durations minus directly nested spans *)
  self_words : float;
}

let none = { count = 0; total_ns = 0; self_ns = 0; self_words = 0. }

(** Per-name totals.  Spans of one request nest by their intervals (a
    request runs on one thread), so a span's self time is its duration
    minus that of the spans directly inside it. *)
let self_times spans =
  let acc : (string, self) Hashtbl.t = Hashtbl.create 16 in
  let bump name ~dur ~self ~words =
    let s = Option.value (Hashtbl.find_opt acc name) ~default:none in
    Hashtbl.replace acc name
      { count = s.count + 1; total_ns = s.total_ns + dur;
        self_ns = s.self_ns + self; self_words = s.self_words +. words }
  in
  let by_req : (int, t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by_req s.req
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_req s.req)))
    spans;
  Hashtbl.iter
    (fun _ group ->
      let group =
        List.sort
          (fun a b -> if a.t0 <> b.t0 then compare a.t0 b.t0 else compare b.t1 a.t1)
          group
      in
      (* open spans, innermost first, each with the time and words its
         children took so far *)
      let stack = ref [] in
      let close () =
        match !stack with
        | (s, child_ns, child_words) :: rest ->
          stack := rest;
          let dur = s.t1 - s.t0 in
          bump s.name ~dur ~self:(dur - child_ns)
            ~words:(s.words -. child_words);
          (match rest with
          | (p, pn, pw) :: rest' -> stack := (p, pn + dur, pw +. s.words) :: rest'
          | [] -> ())
        | [] -> ()
      in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (top, _, _) :: _ when top.t1 <= s.t0 -> close (); pop ()
            | _ -> ()
          in
          pop ();
          stack := (s, 0, 0.) :: !stack)
        group;
      while !stack <> [] do close () done)
    by_req;
  acc

let find tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:none

(** Chrome-trace JSON ("X" complete events; open in chrome://tracing or
    Perfetto).  One row per request. *)
let chrome spans =
  let module J = Obs.Json in
  let origin = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let us ns = J.Float (float_of_int ns /. 1e3) in
  J.Obj
    [ ( "traceEvents",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [ ("name", J.Str s.name); ("cat", J.Str (layer_of s.name));
                   ("ph", J.Str "X"); ("ts", us (s.t0 - origin));
                   ("dur", us (s.t1 - s.t0)); ("pid", J.Int 1);
                   ("tid", J.Int s.req);
                   ( "args",
                     J.Obj
                       [ ("req", J.Int s.req);
                         ("minor_words", J.Float s.words) ] ) ])
             spans) );
      ("displayTimeUnit", J.Str "ns") ]

(** Per-layer self-time table, largest first. *)
let print_table oc spans =
  let tbl = self_times spans in
  let rows =
    Hashtbl.fold
      (fun name s acc -> (layer_of name, name, s) :: acc)
      tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b.self_ns a.self_ns)
  in
  let total = List.fold_left (fun n (_, _, s) -> n + s.self_ns) 0 rows in
  Printf.fprintf oc "%-10s %-24s %8s %12s %7s %14s\n" "layer" "span" "count"
    "self ms" "share" "self words";
  List.iter
    (fun (layer, name, s) ->
      Printf.fprintf oc "%-10s %-24s %8d %12.3f %6.1f%% %14.0f\n" layer name
        s.count
        (float_of_int s.self_ns /. 1e6)
        (100. *. float_of_int s.self_ns /. float_of_int (max 1 total))
        s.self_words)
    rows
