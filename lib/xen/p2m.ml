type entry =
  | Invalid
  | Mapped of { mfn : Memory.Page.mfn; writable : bool }

(* Packed representation: mfns.(pfn) = -1 for Invalid; the writable bits
   live in a separate byte table.  A full-machine P2M at page_scale 1
   has tens of millions of entries, so compactness matters.

   Superpages: the guest-physical space is tiled into aligned extents of
   [sp_frames] frames each.  A set bit in [sp] marks an extent mapped by
   a single superpage entry; its per-frame mfns stay filled in (lookup
   is unchanged and O(1)) but the invariant is that they are contiguous
   from an [sp_frames]-aligned machine base with a uniform writable bit.
   Any per-frame mutation inside a superpage extent splinters it first,
   so the invariant can never be observed broken. *)
type update =
  | Set of { pfn : int; mfn : int; writable : bool }
  | Cleared of { pfn : int }
  | Superpage_mapped of { pfn : int; mfn : int; writable : bool }
  | Splintered of { pfn : int }
  | Promoted of { pfn : int }

type t = {
  mfns : int array;
  writable : Bytes.t;
  mutable mapped : int;
  sp_frames : int;
  sp : Bytes.t;  (* one byte per extent; '\001' = superpage *)
  mutable superpages : int;
  mutable splinters : int;  (* cumulative demotions *)
  mutable promotes : int;  (* cumulative coalesces *)
  mutable version : int;  (* bumped once per mutation, in [notify] *)
  mutable on_update : (update -> unit) option;
      (* Fires after every mutation, in application order; replaying
         the stream onto a second table reproduces this one exactly
         (the replicated-page-table machinery depends on it). *)
}

let create ?(sp_frames = Memory.Page.frames_per_2m) ~frames () =
  if frames <= 0 then invalid_arg "P2m.create: frames must be positive";
  if sp_frames <= 0 then invalid_arg "P2m.create: sp_frames must be positive";
  if sp_frames land (sp_frames - 1) <> 0 then
    invalid_arg "P2m.create: sp_frames must be a power of two";
  let extents = (frames + sp_frames - 1) / sp_frames in
  {
    mfns = Array.make frames (-1);
    writable = Bytes.make frames '\000';
    mapped = 0;
    sp_frames;
    sp = Bytes.make extents '\000';
    superpages = 0;
    splinters = 0;
    promotes = 0;
    version = 0;
    on_update = None;
  }

let frames t = Array.length t.mfns
let sp_frames t = t.sp_frames
let set_on_update t f = t.on_update <- f
(* Every mutation path — per-frame ops, superpage map/splinter/promote
   and each applied batch element — funnels through [notify], so the
   version bump here covers them all.  The counter only ever grows;
   equality of two reads proves the table saw no mutation in between
   (the fast-forward quiescence check in the engine relies on this). *)
let notify t u =
  t.version <- t.version + 1;
  match t.on_update with Some f -> f u | None -> ()

let check t pfn =
  if pfn < 0 || pfn >= Array.length t.mfns then invalid_arg "P2m: pfn out of range"

let extent_of t pfn = pfn / t.sp_frames

let is_superpage t pfn =
  check t pfn;
  t.sp_frames > 1 && Bytes.get t.sp (extent_of t pfn) <> '\000'

let get t pfn =
  check t pfn;
  let mfn = t.mfns.(pfn) in
  if mfn < 0 then Invalid
  else Mapped { mfn; writable = Bytes.get t.writable pfn <> '\000' }

let mfn_of t pfn =
  check t pfn;
  t.mfns.(pfn)

let is_writable t pfn =
  check t pfn;
  Bytes.get t.writable pfn <> '\000'

(* Demote the extent holding [pfn] to per-frame entries.  Pure
   bookkeeping — the per-frame mfns are already filled in — so lookups
   of every frame in the extent are unchanged.  Cost accounting (the
   write-protect, copy and remap of each 4 KiB entry) is the caller's
   job: the hypervisor knows why it is splintering, the table does not.
   Returns the number of frames demoted (0 if not a superpage). *)
let splinter t pfn =
  check t pfn;
  let ext = extent_of t pfn in
  if t.sp_frames > 1 && Bytes.get t.sp ext <> '\000' then begin
    Bytes.set t.sp ext '\000';
    t.superpages <- t.superpages - 1;
    t.splinters <- t.splinters + 1;
    notify t (Splintered { pfn = ext * t.sp_frames });
    t.sp_frames
  end
  else 0

let splinter_if_superpage t pfn =
  if t.sp_frames > 1 && Bytes.get t.sp (extent_of t pfn) <> '\000' then
    ignore (splinter t pfn)

let set t pfn ~mfn ~writable =
  check t pfn;
  (* invalid_arg, not assert: the guard must survive -noassert/release
     builds — a negative mfn would silently masquerade as Invalid and
     corrupt the mapped count. *)
  if mfn < 0 then invalid_arg "P2m.set: negative mfn";
  splinter_if_superpage t pfn;
  if t.mfns.(pfn) < 0 then t.mapped <- t.mapped + 1;
  t.mfns.(pfn) <- mfn;
  Bytes.set t.writable pfn (if writable then '\001' else '\000');
  notify t (Set { pfn; mfn; writable })

let invalidate t pfn =
  check t pfn;
  let mfn = t.mfns.(pfn) in
  if mfn < 0 then None
  else begin
    splinter_if_superpage t pfn;
    t.mfns.(pfn) <- -1;
    Bytes.set t.writable pfn '\000';
    t.mapped <- t.mapped - 1;
    notify t (Cleared { pfn });
    Some mfn
  end

let write_protect t pfn =
  check t pfn;
  if t.mfns.(pfn) >= 0 then begin
    splinter_if_superpage t pfn;
    Bytes.set t.writable pfn '\000';
    notify t (Set { pfn; mfn = t.mfns.(pfn); writable = false })
  end

let map_superpage t ~pfn ~mfn ~writable =
  check t pfn;
  if t.sp_frames <= 1 then invalid_arg "P2m.map_superpage: sp_frames is 1";
  if pfn mod t.sp_frames <> 0 then invalid_arg "P2m.map_superpage: pfn not aligned";
  if pfn + t.sp_frames > Array.length t.mfns then
    invalid_arg "P2m.map_superpage: extent out of range";
  if mfn < 0 || mfn mod t.sp_frames <> 0 then
    invalid_arg "P2m.map_superpage: mfn not aligned";
  for i = pfn to pfn + t.sp_frames - 1 do
    if t.mfns.(i) >= 0 then invalid_arg "P2m.map_superpage: extent not empty"
  done;
  let w = if writable then '\001' else '\000' in
  for i = 0 to t.sp_frames - 1 do
    t.mfns.(pfn + i) <- mfn + i;
    Bytes.set t.writable (pfn + i) w
  done;
  t.mapped <- t.mapped + t.sp_frames;
  Bytes.set t.sp (extent_of t pfn) '\001';
  t.superpages <- t.superpages + 1;
  notify t (Superpage_mapped { pfn; mfn; writable })

(* Coalesce the extent at [pfn] back into one superpage entry, if every
   frame is mapped, the machine frames are contiguous from an aligned
   base and the writable bits are uniform (a superpage entry has one
   permission bit).  Returns [false] (leaving the table untouched) when
   the extent does not qualify. *)
let promote t ~pfn =
  check t pfn;
  if t.sp_frames <= 1 then false
  else if pfn mod t.sp_frames <> 0 then invalid_arg "P2m.promote: pfn not aligned"
  else if pfn + t.sp_frames > Array.length t.mfns then false
  else if Bytes.get t.sp (extent_of t pfn) <> '\000' then false
  else begin
    let base = t.mfns.(pfn) in
    let ok = ref (base >= 0 && base mod t.sp_frames = 0) in
    let w = Bytes.get t.writable pfn in
    let i = ref 1 in
    while !ok && !i < t.sp_frames do
      if t.mfns.(pfn + !i) <> base + !i || Bytes.get t.writable (pfn + !i) <> w then
        ok := false;
      incr i
    done;
    if !ok then begin
      Bytes.set t.sp (extent_of t pfn) '\001';
      t.superpages <- t.superpages + 1;
      t.promotes <- t.promotes + 1;
      notify t (Promoted { pfn })
    end;
    !ok
  end

(* Batched mutation API: one sort per batch groups the ops by extent,
   so a 2 MiB entry is splintered at most once per batch (the sp bit is
   cleared by the first frame that lands in it) and the mfns/writable
   tables are walked with locality.  The sort is in place over the
   caller's scratch arrays — the batch paths allocate nothing. *)

type batch_stats = { applied : int; splintered : int }

(* In-place ascending quicksort of a.(lo..hi), optionally swapping a
   tandem array in step (migrate batches carry pfn->mfn pairs).
   Median-of-three pivoting; insertion sort below 16 elements.  The
   sort is deterministic, so batch processing order is too. *)
let sort_prefix ?tandem a n =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    match tandem with
    | None -> ()
    | Some b ->
        let t = b.(i) in
        b.(i) <- b.(j);
        b.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let j = ref i in
      while !j > lo && a.(!j - 1) > a.(!j) do
        swap (!j - 1) !j;
        decr j
      done
    done
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* Median-of-three into a.(mid). *)
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  if n > 1 then qsort 0 (n - 1)

let check_batch t name n len =
  if n < 0 || n > len then invalid_arg (name ^ ": n out of range");
  ignore t

(* One element of an invalidate batch, counted into [applied] and
   [splintered]. *)
let invalidate_one t ?on_splinter ?on_free ~applied ~splintered pfn =
  check t pfn;
  let mfn = t.mfns.(pfn) in
  if mfn >= 0 then begin
    if t.sp_frames > 1 && Bytes.get t.sp (extent_of t pfn) <> '\000' then begin
      (match on_splinter with Some f -> f pfn | None -> ());
      ignore (splinter t pfn);
      incr splintered
    end;
    t.mfns.(pfn) <- -1;
    Bytes.set t.writable pfn '\000';
    t.mapped <- t.mapped - 1;
    notify t (Cleared { pfn });
    incr applied;
    match on_free with Some f -> f pfn mfn | None -> ()
  end

let invalidate_batch t ?on_splinter ?on_free pfns ~n =
  check_batch t "P2m.invalidate_batch" n (Array.length pfns);
  Obs.Profile.span Obs.Profile.P2m_batch @@ fun () ->
  sort_prefix pfns n;
  let applied = ref 0 and splintered = ref 0 in
  for i = 0 to n - 1 do
    invalidate_one t ?on_splinter ?on_free ~applied ~splintered pfns.(i)
  done;
  { applied = !applied; splintered = !splintered }

(* The pfns are consecutive, hence already sorted and distinct: the
   batch path minus the sort and the pfn buffer. *)
let invalidate_range ?on_splinter ?on_free t ~first ~n =
  if n < 0 then invalid_arg "P2m.invalidate_range: n out of range";
  Obs.Profile.span Obs.Profile.P2m_batch @@ fun () ->
  let applied = ref 0 and splintered = ref 0 in
  for pfn = first to first + n - 1 do
    invalidate_one t ?on_splinter ?on_free ~applied ~splintered pfn
  done;
  { applied = !applied; splintered = !splintered }

let migrate_batch t ?on_splinter pfns mfns ~n ~f =
  check_batch t "P2m.migrate_batch" n (min (Array.length pfns) (Array.length mfns));
  Obs.Profile.span Obs.Profile.P2m_batch @@ fun () ->
  sort_prefix ~tandem:mfns pfns n;
  let applied = ref 0 in
  let splintered = ref 0 in
  for i = 0 to n - 1 do
    let pfn = pfns.(i) in
    check t pfn;
    let old_mfn = t.mfns.(pfn) in
    if old_mfn >= 0 then begin
      let new_mfn = mfns.(i) in
      if new_mfn < 0 then invalid_arg "P2m.migrate_batch: negative mfn";
      if t.sp_frames > 1 && Bytes.get t.sp (extent_of t pfn) <> '\000' then begin
        (match on_splinter with Some f -> f pfn | None -> ());
        ignore (splinter t pfn);
        incr splintered
      end;
      (* Remap in place: the write-protect window and per-frame costs
         are the caller's accounting, exactly as for [set]. *)
      t.mfns.(pfn) <- new_mfn;
      notify t
        (Set { pfn; mfn = new_mfn; writable = Bytes.get t.writable pfn <> '\000' });
      incr applied;
      f pfn ~old_mfn
    end
  done;
  { applied = !applied; splintered = !splintered }

let version t = t.version
let mapped_count t = t.mapped
let superpage_count t = t.superpages
let superpage_frames t = t.superpages * t.sp_frames
let splinter_count t = t.splinters
let promote_count t = t.promotes

let check_consistent t =
  let scanned = Array.fold_left (fun acc mfn -> if mfn >= 0 then acc + 1 else acc) 0 t.mfns in
  let sp_ok = ref (t.superpages >= 0) in
  let sp_seen = ref 0 in
  for ext = 0 to Bytes.length t.sp - 1 do
    if Bytes.get t.sp ext <> '\000' then begin
      incr sp_seen;
      let pfn = ext * t.sp_frames in
      if t.sp_frames <= 1 || pfn + t.sp_frames > Array.length t.mfns then sp_ok := false
      else begin
        let base = t.mfns.(pfn) in
        if base < 0 || base mod t.sp_frames <> 0 then sp_ok := false
        else
          let w = Bytes.get t.writable pfn in
          for i = 1 to t.sp_frames - 1 do
            if t.mfns.(pfn + i) <> base + i || Bytes.get t.writable (pfn + i) <> w then
              sp_ok := false
          done
      end
    end
  done;
  scanned = t.mapped && !sp_ok && !sp_seen = t.superpages

let iter_mapped t f =
  let mfns = t.mfns in
  for pfn = 0 to Array.length mfns - 1 do
    let mfn = mfns.(pfn) in
    if mfn >= 0 then f pfn mfn
  done
