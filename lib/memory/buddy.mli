(** Binary buddy allocator over a contiguous range of frame numbers.

    Xen's heap allocator hands out power-of-two blocks of machine
    frames; the round-1G policy asks for order-18 ({!Page.order_1g},
    1 GiB) blocks and falls back to order-9 ({!Page.order_2m}, 2 MiB)
    then order-0 (4 KiB) under fragmentation.  The order constants are
    derived once in {!Page} from the {!Sim.Units} sizes — they are not
    hard-coded here a second time.  This is a faithful buddy system: blocks split on
    allocation and coalesce with their buddy on free. *)

type t

val create : base:int -> frames:int -> t
(** [create ~base ~frames] manages frames [\[base, base + frames)],
    initially all free.  [frames] need not be a power of two; the range
    is covered greedily by maximal aligned power-of-two blocks.
    @raise Invalid_argument if [frames <= 0] or [base < 0]. *)

val max_order : int
(** Largest supported order (20, i.e. 4 GiB blocks of 4 KiB frames). *)

val alloc : t -> order:int -> int option
(** [alloc t ~order] returns the base frame of a free block of
    [2^order] frames, or [None] if no block of that size can be carved.
    Splits larger blocks as needed, preferring the smallest suitable
    block and the lowest address (like Xen's heap). *)

val free : t -> base:int -> order:int -> unit
(** Return a block; coalesces with free buddies.
    @raise Invalid_argument if the block is outside the managed range
    or (detectable) double-free of an aligned block. *)

val free_run : t -> base:int -> frames:int -> unit
(** [free_run t ~base ~frames] frees the consecutive order-0
    allocations [\[base, base + frames)]: the same end state as
    {!free} of each frame with [~order:0], but the run's frames enter
    the free sets as its maximal aligned blocks, each coalesced once.
    Every frame's tag is checked before anything changes, by one scan
    of the run's tag pages; a run that holds an offline-pending frame
    is freed frame by frame.  A run of [frames <= 0] frees nothing.
    @raise Invalid_argument with {!free}'s message (out of range,
    double free, order mismatch) for the first offending frame. *)

val split_allocation : t -> base:int -> order:int -> unit
(** Re-register an allocated block of [2^order] frames as [2^order]
    individual order-0 allocations, so its frames can later be freed
    one at a time (Xen's round-1G boot allocation is carved into 4 KiB
    P2M entries that are invalidated and freed individually).
    @raise Invalid_argument if no allocated block of that order starts
    at [base]. *)

val free_frames : t -> int
(** Total free frames. *)

val largest_free_order : t -> int option
(** Order of the largest currently-free block, [None] if full. *)

val check_consistent : t -> bool
(** Invariant check: [true] iff the free blocks are aligned, in range
    and pairwise disjoint, no two mergeable buddies are both free at
    the same order, no free frame is tagged allocated, offlined or
    offline-pending, and the block sizes sum to {!free_frames}.  Under
    eager coalescing this makes the free sets a function of the set of
    free frames alone, which is why frees may be deferred and batched
    ({!free_run}) without changing any later allocation.
    O(free frames). *)

(** {2 RAS page offlining}

    Offlined frames leave the arena for good: they are removed from the
    free sets, can never be re-allocated, and the partition invariant
    becomes free + allocated + offlined = total (pending frames count
    as allocated until freed). *)

val offline_range : t -> base:int -> frames:int -> int * int
(** [offline_range t ~base ~frames] retires the intersection of the
    range with the arena: free frames are offlined immediately,
    allocated frames are marked offline-pending and retire when freed.
    Returns [(offlined_now, pending)].  Idempotent on already-offlined
    or already-pending frames. *)

val online_range : t -> base:int -> frames:int -> int
(** Undo {!offline_range}: offlined frames rejoin the free pool
    (coalescing as usual), pending marks are cancelled.  Returns the
    number of frames restored to the free pool. *)

val offlined_frames : t -> int
(** Frames currently retired from the arena. *)

val offline_pending_frames : t -> int
(** Allocated frames that will retire on free. *)

val is_offlined : t -> frame:int -> bool
(** The frame is retired (out-of-range frames are [false]). *)
