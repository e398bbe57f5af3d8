(* Bounded, lossy-by-design ring: fixed capacity, overwrite-oldest,
   with an explicit count of overwritten entries.  The invariant the
   qcheck property enforces: kept + dropped = emitted, and the kept
   entries are exactly the most recent ones, in emission order. *)

type 'a t = {
  buf : 'a array;
  capacity : int;
  mutable head : int;  (* next write position *)
  mutable len : int;  (* entries currently held, <= capacity *)
  mutable emitted : int;
  mutable dropped : int;
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity dummy; capacity; head = 0; len = 0; emitted = 0; dropped = 0 }

let length t = t.len
let emitted t = t.emitted
let dropped t = t.dropped

let push t x =
  t.buf.(t.head) <- x;
  t.head <- (t.head + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1;
  t.emitted <- t.emitted + 1

(* Oldest-to-newest of the kept entries. *)
let to_list t =
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i -> t.buf.((start + i) mod t.capacity))
