(* Binary min-heap keyed on (time, sequence number); the sequence number
   breaks ties so that events scheduled at the same instant preserve
   FIFO order, which keeps microprobe traces deterministic. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable clock : float;
  mutable next_seq : int;
}

let create () = { heap = [||]; len = 0; clock = 0.0; next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  let dummy = t.heap.(0) in
  let bigger = Array.make (max 16 (cap * 2)) dummy in
  Array.blit t.heap 0 bigger 0 t.len;
  t.heap <- bigger

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let schedule t ~at payload =
  assert (at >= t.clock);
  let entry = { time = at; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.len = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
  if t.len = Array.length t.heap then grow t;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let next t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end;
    t.clock <- top.time;
    Some (top.time, top.payload)
  end
