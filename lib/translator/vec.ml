(* A minimal growable array. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let push v x =
  if v.len = Array.length v.data then (
    let cap = max 8 (2 * Array.length v.data) in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let last v = get v (v.len - 1)

(** Remove and return the last element. *)
let pop v =
  let x = last v in
  v.len <- v.len - 1;
  x

(** Shallow copy (elements shared). *)
let copy v = { data = Array.sub v.data 0 v.len; len = v.len }

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) v;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))
