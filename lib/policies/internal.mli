(** The paper's {e internal interface} (Section 4.1): the two
    mechanisms a NUMA policy needs from the hypervisor.

    Both operate on the hypervisor page table (P2M), never on the guest
    page table: the hypervisor cannot know which guest-physical pages
    the guest OS uses nor synchronize with it on its own page tables,
    so policies place a guest-physical page on a node by backing it
    with a machine page of that node. *)

type map_error = [ `Enomem ]
type migrate_error = [ `Enomem | `Not_mapped ]

val free_mapped : Xen.System.t -> pfn:Memory.Page.pfn -> mfn:Memory.Page.mfn -> unit
(** Free the order-0 frame [mfn] that the P2M entry of [pfn] mapped
    (the caller has already remapped or invalidated the entry).
    @raise Invalid_argument naming the mfn and the pfn when [mfn] is an
    offlined frame: a P2M still mapped it (the RAS invariant
    {!Manager.audit} checks at run end). *)

val map_page :
  Xen.System.t ->
  Xen.Domain.t ->
  pfn:Memory.Page.pfn ->
  node:Numa.Topology.node ->
  (Memory.Page.mfn, map_error) result
(** Map the guest-physical page [pfn] onto a fresh machine page of
    [node] (falling back round-robin to other nodes when [node] is
    full, like Xen's heap).  The previous backing frame, if any, is
    freed.  Time is charged by the caller (the fault path charges it
    through {!Xen.Domain.handle_fault}; boot population is free). *)

val migrate_page :
  Xen.System.t ->
  Xen.Domain.t ->
  pfn:Memory.Page.pfn ->
  node:Numa.Topology.node ->
  (Memory.Page.mfn, migrate_error) result
(** Migrate a mapped page to [node]: write-protect the P2M entry (so
    concurrent guest writes fault and wait), copy the page to a frame
    of the new node, update the entry and free the old frame.  No-op
    success if the page already lives on [node].  Charges the fixed
    migration cost plus the per-byte copy cost to the domain's
    [Migrate] ledger entry; if the page lay inside a 2 MiB superpage
    the extent is splintered first and the per-frame demotion cost
    ({!Xen.Costs.splinter_time}) is charged on top. *)

val migrate_group :
  Xen.System.t ->
  Xen.Domain.t ->
  on_splinter:(Memory.Page.pfn -> unit) ->
  pfns:int array ->
  scratch_mfns:int array ->
  n:int ->
  node:Numa.Topology.node ->
  [ `Done of int | `Enomem of int ]
(** Migrate [pfns.(0..n-1)] — which must all be mapped off-node — onto
    [node] as one grouped operation: target frames are allocated (and
    the transient-ENOMEM fault drawn) page by page in array order, the
    remap then goes through {!Xen.P2m.migrate_batch} (one sort, each
    superpage extent splintered at most once) and the domain is charged
    the amortised {!Xen.Costs.migrate_batch_time} for the group plus
    any splinters.  [on_splinter] fires once per demoted extent.
    Returns [`Done moved] ([moved = n]) on success, or [`Enomem moved]
    when an allocation failed: the first [moved] entries of [pfns]
    (reordered by the sort) were migrated, the tail
    [pfns.(moved..n-1)] was left untouched for the caller to requeue.
    [scratch_mfns] is caller-provided scratch of at least [n]. *)

val node_of_pfn : Xen.System.t -> Xen.Domain.t -> Memory.Page.pfn -> Numa.Topology.node option
(** Node currently backing the page, [None] for an invalid entry. *)
