(** Guest side of the paper's external interface: the batched
    allocation/release queue (Sections 4.2.3–4.2.4).

    Calling the hypervisor on every page release is far too expensive
    (an application like wrmem releases a page every 15 µs; an empty
    hypercall per release divides its performance by 3).  Instead the
    guest OS accumulates (op, page) pairs — where op is allocation or
    release — in a queue and flushes the whole queue in one hypercall
    when it fills.

    Because a page can be reallocated while sitting in the queue, both
    allocations and releases are recorded, and only the most recent
    operation per page counts: a final Release means the page is free
    and its P2M entry can be invalidated; a final Alloc means the page
    may already be in use and is left on its current node (copying
    would be too costly for this rare case).

    A single global queue serializes all cores on its lock, so the
    queue is partitioned by the two least significant bits of the page
    frame number, each partition with its own lock; the guest holds the
    partition lock across the flush hypercall so no other core can
    reallocate a page that is in flight.

    The most-recent-op-wins rule runs here and nowhere else: each flush
    walks its partition newest-first over a flat generation-stamp
    array — O(1) per entry, no hashing, no per-batch clearing — so
    every batch the hypervisor receives carries at most one op per
    page, and the hypervisor ([Policies.Manager.page_ops_hypercall])
    applies each op as it arrives. *)

type op =
  | Alloc of Memory.Page.pfn
  | Release of Memory.Page.pfn

val op_pfn : op -> Memory.Page.pfn

type stats = {
  mutable enqueued : int;
  mutable flushes : int;
  mutable ops_sent : int;
  mutable guest_time : float;
      (** Guest-visible time spent flushing (hypercall + lock hold). *)
  mutable dropped : int;  (** Ops swallowed by an injected drop fault. *)
  mutable dedup_hits : int;
      (** Superseded ops removed by the flush-time shard dedup. *)
}

type t

val create :
  ?partitions:int ->
  ?capacity:int ->
  frames:int ->
  flush:(op array -> float) ->
  unit ->
  t
(** [create ~partitions ~capacity ~frames ~flush ()] — [partitions]
    defaults to 4 (two PFN bits) and must be a power of two;
    [capacity] (default 128) is the per-partition entry count that
    triggers a flush; the queue accepts pfns in [\[0, frames)].  Each
    flush dedups the partition through a generation-stamp array before
    invoking the handler (most recent op per page wins; partitions hold
    disjoint pfn sets so one stamp array serves all of them),
    delivering the survivors oldest-first.  The array grows on demand
    to cover the highest pfn recorded, so the queue's memory follows
    the pfns it carries, not [frames].  [flush ops] is the
    hypervisor's handler; it returns the time the hypercall took, which
    is charged to [stats.guest_time].
    @raise Invalid_argument when [partitions] is not a power of two or
    [capacity] or [frames] is not positive. *)

val partitions : t -> int

val partition_of : t -> Memory.Page.pfn -> int
(** Partition index = low bits of the pfn. *)

val record : t -> op -> unit
(** Append under the partition lock; flushes the partition through the
    hypercall if it reaches capacity.  The partition is emptied before
    the flush handler runs, so a handler may re-enter [record].
    @raise Invalid_argument when the op's pfn is outside
    [\[0, frames)]. *)

val set_fault_hooks : t -> drop_op:(op -> bool) -> unit
(** Install the op-drop fault hook ([Faults.Injector.install_queue]):
    [drop_op op] returning [true] silently discards the op.  The draw
    happens at flush time, once per op surviving dedup, so the fault
    schedule is independent of how many superseded duplicates each op
    shadowed.  Defaults to never firing.  Batch loss in transit is not
    a queue hook: the page-ops hypercall draws it once per batch
    ({!Xen.System.fault_hooks}). *)

val set_obs : t -> ?domain:int -> Obs.Stream.t option -> unit
(** Attach a trace stream: [record] then emits [Pv_record] (pfn; arg 0
    = alloc, 1 = release), successful flushes emit [Pv_flush] (arg =
    batch size), and flushes that
    superseded queued ops [Pv_dedup] (arg = ops removed).  [domain]
    labels the events (default -1). *)

val flush_all : t -> unit
(** Force-flush every non-empty partition: delivers what is still
    queued when a workload ends (the batching experiment's last
    flush). *)

val pending : t -> int
(** Entries currently queued across all partitions. *)

val stats : t -> stats
