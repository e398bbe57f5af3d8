module Int_set = Set.Make (Int)

let max_order = 20

(* Per-frame byte state, paged: a page of [page_frames] bytes comes
   into being on its first non-zero write, and a missing page reads as
   '\000'.  A node's arena holds millions of frames but a run only
   touches the ones its guest is backed by, so a flat table would make
   every boot O(machine) where this is O(footprint).  A sparse
   base -> order map would not be: [split_allocation] tags every frame
   of a 1 GiB block as its own order-0 allocation. *)
module Paged = struct
  let page_bits = 16
  let page_frames = 1 lsl page_bits

  type t = { len : int; pages : Bytes.t array (* [Bytes.empty] = all zero *) }

  let create len =
    { len; pages = Array.make ((len + page_frames - 1) lsr page_bits) Bytes.empty }

  (* Out-of-range indices raise [Bytes]' own [Invalid_argument], as a
     flat table would. *)
  let get t i =
    if i < 0 || i >= t.len then invalid_arg "index out of bounds";
    let page = t.pages.(i lsr page_bits) in
    if Bytes.length page = 0 then '\000' else Bytes.get page (i land (page_frames - 1))

  let set t i c =
    if i < 0 || i >= t.len then invalid_arg "index out of bounds";
    let p = i lsr page_bits in
    let page = t.pages.(p) in
    if Bytes.length page > 0 then Bytes.set page (i land (page_frames - 1)) c
    else if c <> '\000' then begin
      let page = Bytes.make page_frames '\000' in
      t.pages.(p) <- page;
      Bytes.set page (i land (page_frames - 1)) c
    end

  (* [set] over [\[i, i + len)], with one [Bytes.fill] per page. *)
  let fill t i len c =
    if len > 0 then begin
      if i < 0 || i + len > t.len then invalid_arg "index out of bounds";
      let stop = i + len and cur = ref i in
      while !cur < stop do
        let p = !cur lsr page_bits and off = !cur land (page_frames - 1) in
        let n = Int.min (page_frames - off) (stop - !cur) in
        if Bytes.length t.pages.(p) > 0 then Bytes.fill t.pages.(p) off n c
        else if c <> '\000' then begin
          let page = Bytes.make page_frames '\000' in
          t.pages.(p) <- page;
          Bytes.fill page off n c
        end;
        cur := !cur + n
      done
    end

  (* [true] iff [\[i, i + len)] is in bounds and every byte in it reads
     [c]. *)
  let all_equal t i len c =
    i >= 0 && i + len <= t.len
    && begin
         let stop = i + len and cur = ref i and ok = ref true in
         while !ok && !cur < stop do
           let p = !cur lsr page_bits and off = !cur land (page_frames - 1) in
           let n = Int.min (page_frames - off) (stop - !cur) in
           let page = t.pages.(p) in
           if Bytes.length page = 0 then ok := c = '\000'
           else
             for j = off to off + n - 1 do
               if Bytes.unsafe_get page j <> c then ok := false
             done;
           cur := !cur + n
         done;
         !ok
       end
end

type t = {
  base : int;
  total : int;
  free_sets : Int_set.t array;  (* free block bases, per order *)
  (* allocated.(f - base) = order + 1 when an allocated block of that
     order starts at frame f; detects double frees and order
     mismatches. *)
  allocated : Paged.t;
  (* offline.(f - base): '\000' healthy, '\001' offlined (out of the
     arena, never re-allocated), '\002' offline pending — the frame was
     allocated when the offline request arrived and converts to
     offlined the moment it is freed. *)
  offline : Paged.t;
  mutable free : int;
  mutable offlined : int;
  mutable offline_pending : int;
}

let block_frames order = 1 lsl order

let add_block t ~base ~order =
  t.free_sets.(order) <- Int_set.add base t.free_sets.(order)

(* Largest order of an aligned block at [base] that fits below [stop]. *)
let fit_order base stop =
  let rec go o =
    if o < max_order && base land block_frames o = 0 && base + block_frames (o + 1) <= stop
    then go (o + 1)
    else o
  in
  go 0

let create ~base ~frames =
  if frames <= 0 then invalid_arg "Buddy.create: frames must be positive";
  if base < 0 then invalid_arg "Buddy.create: negative base";
  let t =
    { base; total = frames; free_sets = Array.make (max_order + 1) Int_set.empty;
      allocated = Paged.create frames; offline = Paged.create frames;
      free = 0; offlined = 0; offline_pending = 0 }
  in
  (* Greedy cover by maximal aligned power-of-two blocks. *)
  let cur = ref base and stop = base + frames in
  while !cur < stop do
    let order = fit_order !cur stop in
    add_block t ~base:!cur ~order;
    t.free <- t.free + block_frames order;
    cur := !cur + block_frames order
  done;
  assert (t.free = frames);
  t

let free_frames t = t.free
let offlined_frames t = t.offlined
let offline_pending_frames t = t.offline_pending

let offline_state t frame = Paged.get t.offline (frame - t.base)

let is_offlined t ~frame =
  frame >= t.base && frame < t.base + t.total && offline_state t frame = '\001'

let largest_free_order t =
  let rec scan o = if o < 0 then None else if Int_set.is_empty t.free_sets.(o) then scan (o - 1) else Some o in
  scan max_order

(* Loops, not local recursive functions, so that a call builds no
   closure: a boot population calls this once per 2 MiB block, which at
   coarse page scales is every few frames. *)
let alloc t ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc: bad order";
  let found = ref order in
  while !found <= max_order && Int_set.is_empty t.free_sets.(!found) do
    incr found
  done;
  if !found > max_order then None
  else begin
    let found = !found in
    let block = Int_set.min_elt t.free_sets.(found) in
    t.free_sets.(found) <- Int_set.remove block t.free_sets.(found);
    (* Split down to the requested order, freeing the upper halves. *)
    for o = found - 1 downto order do
      add_block t ~base:(block + block_frames o) ~order:o
    done;
    t.free <- t.free - block_frames order;
    Paged.set t.allocated (block - t.base) (Char.chr (order + 1));
    Some block
  end

let split_allocation t ~base ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.split_allocation: bad order";
  (match Char.code (Paged.get t.allocated (base - t.base)) with
  | 0 -> invalid_arg "Buddy.split_allocation: block not allocated"
  | tag when tag - 1 <> order -> invalid_arg "Buddy.split_allocation: order mismatch"
  | _ -> ());
  Paged.fill t.allocated (base - t.base) (block_frames order) '\001'

let in_range t ~base ~order =
  base >= t.base && base + block_frames order <= t.base + t.total

let rec coalesce t base order =
  if order >= max_order then add_block t ~base ~order
  else begin
    let buddy = base lxor block_frames order in
    if Int_set.mem buddy t.free_sets.(order) && in_range t ~base:(min base buddy) ~order:(order + 1)
    then begin
      t.free_sets.(order) <- Int_set.remove buddy t.free_sets.(order);
      coalesce t (min base buddy) (order + 1)
    end
    else add_block t ~base ~order
  end

(* The tag checks shared by [free] and [free_run]. *)
let check_allocated t ~base ~order =
  if not (in_range t ~base ~order) then invalid_arg "Buddy.free: block out of range";
  match Char.code (Paged.get t.allocated (base - t.base)) with
  | 0 -> invalid_arg "Buddy.free: double free"
  | tag when tag - 1 <> order -> invalid_arg "Buddy.free: order mismatch"
  | _ -> ()

let has_pending t ~base ~frames =
  let pending = ref false in
  if t.offline_pending > 0 then
    for f = base to base + frames - 1 do
      if offline_state t f = '\002' then pending := true
    done;
  !pending

let free t ~base ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.free: bad order";
  check_allocated t ~base ~order;
  Paged.set t.allocated (base - t.base) '\000';
  if not (has_pending t ~base ~frames:(block_frames order)) then begin
    t.free <- t.free + block_frames order;
    coalesce t base order
  end
  else begin
    (* An offline request arrived while the block was allocated: the
       pending frames leave the arena now instead of returning to the
       free pool; any healthy frames of a mixed block come back one at
       a time (coalescing as usual). *)
    for f = base to base + block_frames order - 1 do
      if offline_state t f = '\002' then begin
        Paged.set t.offline (f - t.base) '\001';
        t.offline_pending <- t.offline_pending - 1;
        t.offlined <- t.offlined + 1
      end
      else begin
        t.free <- t.free + 1;
        coalesce t f 0
      end
    done
  end

(* Exact for the same reason deferred frees are: with eager coalescing
   the free sets are a function of the set of free frames alone, so
   inserting the run's maximal aligned blocks lands where the
   per-frame frees would.  The tags are checked by one scan of the
   run; only a run that fails it is checked frame by frame, to raise
   [free]'s message for the first offending frame. *)
let free_run t ~base ~frames =
  if frames > 0 then begin
    if not (base >= t.base && Paged.all_equal t.allocated (base - t.base) frames '\001') then
      for f = base to base + frames - 1 do
        check_allocated t ~base:f ~order:0
      done;
    if has_pending t ~base ~frames then
      for f = base to base + frames - 1 do
        free t ~base:f ~order:0
      done
    else begin
      Paged.fill t.allocated (base - t.base) frames '\000';
      t.free <- t.free + frames;
      let cur = ref base and stop = base + frames in
      while !cur < stop do
        let order = fit_order !cur stop in
        coalesce t !cur order;
        cur := !cur + block_frames order
      done
    end
  end

let check_consistent t =
  let blocks = ref [] and ok = ref true in
  Array.iteri
    (fun order set ->
      Int_set.iter
        (fun b ->
          blocks := (b, order) :: !blocks;
          if b land (block_frames order - 1) <> 0 || not (in_range t ~base:b ~order) then
            ok := false
          else begin
            let buddy = b lxor block_frames order in
            if order < max_order && Int_set.mem buddy set
               && in_range t ~base:(min b buddy) ~order:(order + 1)
            then ok := false;
            for f = b to b + block_frames order - 1 do
              if Paged.get t.allocated (f - t.base) <> '\000' || offline_state t f <> '\000'
              then ok := false
            done
          end)
        set)
    t.free_sets;
  let rec disjoint = function
    | (b, o) :: ((b', _) :: _ as rest) -> b + block_frames o <= b' && disjoint rest
    | [] | [ _ ] -> true
  in
  let sum = List.fold_left (fun acc (_, o) -> acc + block_frames o) 0 !blocks in
  !ok && sum = t.free && disjoint (List.sort compare !blocks)

let offline_range t ~base ~frames =
  if frames < 0 then invalid_arg "Buddy.offline_range: negative frames";
  let lo = max base t.base and hi = min (base + frames) (t.base + t.total) in
  if lo >= hi then (0, 0)
  else begin
    let offlined_now = ref 0 in
    (* Carve every free block intersecting [lo, hi): the in-range part
       leaves the arena as offlined frames, the rest re-enters the free
       sets. *)
    let rec carve block order =
      let b_lo = block and b_hi = block + block_frames order in
      if b_hi <= lo || b_lo >= hi then add_block t ~base:block ~order
      else if b_lo >= lo && b_hi <= hi then begin
        for f = b_lo to b_hi - 1 do
          Paged.set t.offline (f - t.base) '\001'
        done;
        offlined_now := !offlined_now + block_frames order;
        t.free <- t.free - block_frames order;
        t.offlined <- t.offlined + block_frames order
      end
      else begin
        assert (order > 0);
        let o' = order - 1 in
        carve block o';
        carve (block + block_frames o') o'
      end
    in
    for order = 0 to max_order do
      let overlapping =
        Int_set.filter
          (fun block -> block < hi && block + block_frames order > lo)
          t.free_sets.(order)
      in
      Int_set.iter
        (fun block ->
          t.free_sets.(order) <- Int_set.remove block t.free_sets.(order);
          carve block order)
        overlapping
    done;
    (* Whatever in-range frame is still healthy must be allocated:
       mark it offline-pending so [free] retires it instead of
       recycling it. *)
    let pending = ref 0 in
    for f = lo to hi - 1 do
      if offline_state t f = '\000' then begin
        Paged.set t.offline (f - t.base) '\002';
        t.offline_pending <- t.offline_pending + 1;
        incr pending
      end
    done;
    (!offlined_now, !pending)
  end

let online_range t ~base ~frames =
  if frames < 0 then invalid_arg "Buddy.online_range: negative frames";
  let lo = max base t.base and hi = min (base + frames) (t.base + t.total) in
  let restored = ref 0 in
  for f = lo to hi - 1 do
    match offline_state t f with
    | '\001' ->
        Paged.set t.offline (f - t.base) '\000';
        t.offlined <- t.offlined - 1;
        t.free <- t.free + 1;
        coalesce t f 0;
        incr restored
    | '\002' ->
        (* Cancel a pending offline: the frame stays allocated and will
           return to the free pool normally. *)
        Paged.set t.offline (f - t.base) '\000';
        t.offline_pending <- t.offline_pending - 1
    | _ -> ()
  done;
  !restored
