(** The hypervisor page table (physical-to-machine, P2M).

    One per domain: maps guest-physical frame numbers to machine frame
    numbers.  This is the table every NUMA policy manipulates through
    the internal interface — mapping a guest-physical page onto a
    machine page of the chosen node, invalidating entries of released
    pages so the next touch faults into the hypervisor, and
    write-protecting entries during migration.

    {2 Superpages}

    The guest-physical space is tiled into aligned extents of
    [sp_frames] frames (by default {!Memory.Page.frames_per_2m}, i.e. a
    2 MiB superpage of 4 KiB frames; machines with a page_scale pass
    the scaled equivalent).  An extent can be mapped by one superpage
    entry ({!map_superpage}): its machine frames are contiguous from an
    aligned base and share one writable bit, which is what lets the
    guest TLB cover it with a single 2 MiB entry.  Any per-frame
    mutation inside a superpage — {!set}, {!invalidate},
    {!write_protect} — first {e splinters} the extent back to 512
    per-frame entries (bookkeeping only; the cost of the
    write-protect→copy→remap per frame is charged by the policy layer,
    which knows why it is splintering).  {!promote} re-coalesces a
    qualifying extent. *)

type entry =
  | Invalid  (** Access faults into the hypervisor. *)
  | Mapped of { mfn : Memory.Page.mfn; writable : bool }

(** One table mutation, as seen by an update observer.  The stream is
    emitted in application order from {e every} entry point — per-frame
    ops, superpage map/splinter/promote, and each element of a batch —
    so replaying it verbatim onto a second table built with the same
    [frames]/[sp_frames] reproduces the primary exactly.  This is the
    contract the {!Pt} replicated page tables rely on. *)
type update =
  | Set of { pfn : int; mfn : int; writable : bool }
      (** A per-frame entry was installed or rewritten (covers [set],
          [write_protect] — with the current mfn and [writable =
          false] — and each applied migrate batch element). *)
  | Cleared of { pfn : int }  (** The entry was invalidated. *)
  | Superpage_mapped of { pfn : int; mfn : int; writable : bool }
      (** A whole extent was mapped by one superpage entry. *)
  | Splintered of { pfn : int }
      (** The extent at base [pfn] was demoted to per-frame entries. *)
  | Promoted of { pfn : int }
      (** The extent at base [pfn] was coalesced into a superpage. *)

type t

val create : ?sp_frames:int -> frames:int -> unit -> t
(** P2M covering guest-physical frames [\[0, frames)], all [Invalid].
    [sp_frames] (default {!Memory.Page.frames_per_2m}) is the superpage
    extent size in frames; pass [1] to disable superpages entirely.
    @raise Invalid_argument if [frames <= 0] or [sp_frames] is not a
    positive power of two. *)

val frames : t -> int

val sp_frames : t -> int
(** Frames per superpage extent (1 when superpages are disabled). *)

val set_on_update : t -> (update -> unit) option -> unit
(** Install (or clear) the update observer.  At most one; it fires
    synchronously after each mutation has been applied, in application
    order.  The observer must not mutate the table it is watching. *)

val get : t -> Memory.Page.pfn -> entry
(** @raise Invalid_argument on an out-of-range pfn. *)

val mfn_of : t -> Memory.Page.pfn -> Memory.Page.mfn
(** The machine frame [pfn] maps to, or [-1] for an [Invalid] entry:
    {!get} without building an [entry], for per-period scans that only
    need the frame.
    @raise Invalid_argument on an out-of-range pfn. *)

val is_writable : t -> Memory.Page.pfn -> bool
(** The writable bit of a mapped entry, without building an [entry];
    meaningless for an [Invalid] one.
    @raise Invalid_argument on an out-of-range pfn. *)

val set : t -> Memory.Page.pfn -> mfn:Memory.Page.mfn -> writable:bool -> unit
(** Install a per-frame entry; splinters the surrounding superpage
    first if there is one. *)

val set_run :
  t -> pfn:Memory.Page.pfn -> rows:int -> bases:Memory.Page.mfn array -> writable:bool -> unit
(** Map the [rows * lanes] consecutive pfns from [pfn], where [lanes =
    Array.length bases], as [rows] rows of [lanes] frames: pfn [pfn +
    (r * lanes) + j] maps to machine frame [bases.(j) + r].  One lane
    maps a pfn run onto an mfn run; [k] lanes lay out a round-robin
    interleave over [k] per-node runs.  The end state, {!version},
    {!mapped_count}, superpage bits and update stream are those of
    {!set} over the same frames in pfn order; with no observer
    installed and no superpage in the range it is a fill that builds
    no update.
    @raise Invalid_argument, before any change, on a negative [rows],
    a negative base or a pfn out of range. *)

val invalidate : t -> Memory.Page.pfn -> Memory.Page.mfn option
(** Clear the entry, returning the machine frame it held (if any).
    Splinters the surrounding superpage first if there is one. *)

val write_protect : t -> Memory.Page.pfn -> unit
(** Clear the writable bit of a mapped entry; no-op on [Invalid].
    Splinters the surrounding superpage first if there is one (a
    single-frame permission change cannot be expressed on a 2 MiB
    entry). *)

val map_superpage : t -> pfn:Memory.Page.pfn -> mfn:Memory.Page.mfn -> writable:bool -> unit
(** Map the aligned extent starting at [pfn] as one superpage entry
    backed by contiguous machine frames [\[mfn, mfn + sp_frames)].
    @raise Invalid_argument if either base is unaligned, the extent
    runs past the table, any frame in it is already mapped, or
    superpages are disabled. *)

val is_superpage : t -> Memory.Page.pfn -> bool
(** [true] iff [pfn] lies inside an extent mapped by a superpage
    entry. *)

val splinter : t -> Memory.Page.pfn -> int
(** Demote the extent containing [pfn] to per-frame entries; returns
    the number of frames demoted (0 if it was not a superpage).
    Lookups of every frame in the extent are unchanged — splintering
    is pure bookkeeping at the table level. *)

val promote : t -> pfn:Memory.Page.pfn -> bool
(** Re-coalesce the extent starting at the aligned [pfn] into one
    superpage entry.  Succeeds iff every frame is mapped, the machine
    frames are contiguous from an [sp_frames]-aligned base, and the
    writable bits are uniform; returns [false] (table untouched)
    otherwise.
    @raise Invalid_argument if [pfn] is not extent-aligned. *)

(** {2 Batched mutation}

    The batch entry points sort the op arrays in place (ascending pfn,
    tandem mfn), which groups ops by superpage extent: an extent is
    splintered at most once per batch however many of its frames the
    batch touches, and the tables are walked with locality.  They
    allocate nothing — the caller's arrays double as scratch.
    Amortised costs are charged by the policy layer using
    {!Costs.page_ops_batch_time} and friends. *)

type batch_stats = {
  applied : int;  (** Entries actually mutated (mapped pfns). *)
  splintered : int;  (** Superpage extents demoted by this batch. *)
}

val invalidate_batch :
  t ->
  ?on_splinter:(Memory.Page.pfn -> unit) ->
  ?on_free:(Memory.Page.pfn -> Memory.Page.mfn -> unit) ->
  int array ->
  n:int ->
  batch_stats
(** Invalidate the first [n] pfns of the (reordered) array.  Already
    invalid pfns are skipped.  [on_splinter pfn] fires before each
    extent demotion (once per extent); [on_free pfn mfn] fires for each
    entry cleared, with the machine frame it held.  State is exactly
    that of per-page {!invalidate} over the same pfn set.
    @raise Invalid_argument on an out-of-range pfn or [n]. *)

val invalidate_range :
  ?on_splinter:(Memory.Page.pfn -> unit) ->
  t ->
  first:Memory.Page.pfn ->
  n:int ->
  freed:int array ->
  batch_stats
(** {!invalidate_batch} over the consecutive pfns [\[first, first +
    n)], without the sort or a pfn buffer: the same per-frame state,
    splinter callbacks, update stream, version bumps and stats, in the
    same order.  The machine frames the cleared entries held go to
    [freed.(0 .. applied - 1)], in pfn order, instead of a per-frame
    callback.  A range that runs off the table is applied up to the
    end of the table, then raises, as the batch path does.
    @raise Invalid_argument on an out-of-range pfn, a negative [n], or
    a [freed] shorter than [n]. *)

val migrate_batch :
  t ->
  ?on_splinter:(Memory.Page.pfn -> unit) ->
  int array ->
  int array ->
  n:int ->
  f:(Memory.Page.pfn -> old_mfn:Memory.Page.mfn -> unit) ->
  batch_stats
(** Remap the first [n] pfns onto their tandem mfns, preserving each
    entry's writable bit; unmapped pfns are skipped (their tandem mfn
    is left for the caller to release).  [f pfn ~old_mfn] fires per
    applied remap so the caller can free the displaced frame and charge
    the copy.
    @raise Invalid_argument on an out-of-range pfn, a negative mfn, or
    a bad [n]. *)

val version : t -> int
(** Monotone mutation counter: starts at 0 and is bumped exactly once
    per applied mutation (per-frame ops, superpage map, splinter,
    promote, and each applied batch element — the same events the
    {!set_on_update} stream carries).  Two equal reads prove the table
    was not mutated in between; the engine's steady-state fast-forward
    uses this as its P2M quiescence witness. *)

val mapped_count : t -> int

val superpage_count : t -> int
(** Live superpage entries. *)

val superpage_frames : t -> int
(** Frames covered by live superpage entries. *)

val splinter_count : t -> int
(** Cumulative demotions since [create]. *)

val promote_count : t -> int
(** Cumulative coalesces since [create]. *)

val check_consistent : t -> bool
(** Invariant check for the chaos suite: [true] iff {!mapped_count}
    matches a full scan of the table, every superpage extent is fully
    mapped by contiguous aligned machine frames with uniform
    writability, and {!superpage_count} matches the extent bitmap.
    O(frames). *)

val iter_mapped : t -> (Memory.Page.pfn -> Memory.Page.mfn -> unit) -> unit
