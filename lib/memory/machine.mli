(** Machine (host) memory: per-node frame pools behind the statically
    partitioned machine address space.

    The hardware partitions machine frame numbers into NUMA regions:
    node [n] owns frames [\[n * frames_per_node, (n+1) * frames_per_node)],
    so the owning node of any frame is recovered by division — exactly
    the region map CPUs use to route accesses (Section 3 of the paper).

    A [page_scale] of [k] makes every simulated frame stand for [k]
    real 4 KiB frames; policies keep their semantics (round-4K
    interleaves consecutive frames, round-1G allocates 1 GiB regions)
    while big-footprint benchmarks stay tractable.  [page_scale] must
    be a power of two so buddy orders stay aligned. *)

type t

val create : ?page_scale:int -> Numa.Topology.t -> t
(** @raise Invalid_argument if [page_scale] is not a positive power of
    two or does not divide the per-node memory into whole frames. *)

val topology : t -> Numa.Topology.t
val page_scale : t -> int

val set_alloc_veto : t -> (node:Numa.Topology.node -> order:int -> bool) option -> unit
(** Install (or clear) the fault-injection veto consulted by every
    allocation: when it returns [true] the allocation fails as if the
    node's pool were exhausted.  Frees are never vetoed. *)

val frame_bytes : t -> int
(** Bytes covered by one simulated frame ([4096 * page_scale]). *)

val frames_per_node : t -> int
val total_frames : t -> int

val node_of_mfn : t -> Page.mfn -> Numa.Topology.node
(** Owning node by address-range partition.
    @raise Invalid_argument on an out-of-range frame. *)

val order_of_bytes : t -> bytes:int -> int
(** Smallest buddy order (in scaled frames) covering [bytes]. *)

val order_1g : t -> int
(** Buddy order of a 1 GiB region in scaled frames (0 when
    [page_scale] ≥ 2^18). *)

val order_2m : t -> int

val alloc_on : t -> node:Numa.Topology.node -> order:int -> Page.mfn option
(** Allocate a block of [2^order] scaled frames from the given node's
    pool; [None] when that node cannot satisfy the request or the node
    has left the topology's dynamic node mask. *)

val alloc_frame : t -> node:Numa.Topology.node -> Page.mfn option
(** Single-frame allocation ([order = 0]). *)

val alloc_frame_fallback : t -> prefer:Numa.Topology.node -> Page.mfn option
(** Linux-style first-touch allocation: try [prefer], then fall back to
    the other nodes in round-robin order (shared cursor), as Linux does
    when the local node is out of free pages.  Offline (masked-out)
    nodes are skipped.  [None] only when the whole machine is full. *)

val split_block : t -> mfn:Page.mfn -> order:int -> unit
(** Convert an allocated block into per-frame allocations so the frames
    can be freed individually (see {!Buddy.split_allocation}). *)

val free : t -> mfn:Page.mfn -> order:int -> unit
(** @raise Invalid_argument if the block spans two nodes or is free. *)

val free_run : t -> mfn:Page.mfn -> frames:int -> unit
(** Free [frames] consecutive order-0 allocations from [mfn] (see
    {!Buddy.free_run}); [frames <= 0] frees nothing.
    @raise Invalid_argument if the run spans two nodes or any frame is
    not an order-0 allocation. *)

val free_frames_on : t -> Numa.Topology.node -> int
val free_frames : t -> int

val used_frames_per_node : t -> int array
(** Allocated frames per node — the placement footprint. *)

(** {2 RAS page / node offlining}

    Offlined frames leave the arena permanently (see
    {!Buddy.offline_range}); a frame that is still mapped when the
    offline request arrives retires the moment it is freed. *)

val offline_mfn : t -> Page.mfn -> [ `Offlined | `Pending | `Already ]
(** Retire one machine frame: [`Offlined] if it was free and is gone
    now, [`Pending] if it is allocated and will retire on free,
    [`Already] if it was already retired or pending. *)

val offline_node : t -> Numa.Topology.node -> int * int
(** Retire every frame of the node; returns [(offlined_now, pending)]. *)

val online_node : t -> Numa.Topology.node -> int
(** Undo {!offline_node}; returns frames restored to the free pool. *)

val is_offlined : t -> Page.mfn -> bool
(** The frame is retired (out-of-range frames are [false]). *)

val offlined_frames_on : t -> Numa.Topology.node -> int
val offlined_frames : t -> int
val offline_pending_frames : t -> int
