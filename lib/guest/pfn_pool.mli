(** Guest physical frame pool: the guest OS's free list.

    Frames released by a process return to a LIFO free list and are
    eagerly recycled for the next allocation — the behaviour that makes
    the hypervisor blind to reallocation (Figure 4 of the paper): the
    same guest-physical frame moves from one virtual page to another
    without the hypervisor being involved.  Linux zeroes pages on
    release, so all free frames are interchangeable (Section 4.4.2).

    The para-virtualized kernel feeds the {!Pv_queue} itself, under the
    same critical section as the pool operation: it records an Alloc
    right after {!alloc} and a Release right after {!release}. *)

type t

val create :
  frames:int ->
  ?first_fresh:int ->
  unit ->
  t
(** Pool over guest-physical frames [\[0, frames)], all initially
    unallocated ("fresh").  [first_fresh] (default 0) reserves the low
    frames for the kernel and DMA zones: fresh allocations start there,
    mirroring how Linux keeps user pages out of low memory. *)

val alloc : t -> Memory.Page.pfn option
(** Pop the most recently released frame, else the next fresh frame;
    [None] when the guest-physical space is exhausted. *)

val release : t -> Memory.Page.pfn -> unit
(** Return a frame to the free list (zeroing is implicit).
    @raise Invalid_argument on double release or out-of-range frame. *)

val free_pfns : t -> Memory.Page.pfn list
(** The free list itself, most recently released first, in O(1): every
    released frame not yet re-allocated, each exactly once. *)

val is_free : t -> Memory.Page.pfn -> bool
