(** Page-table placement and per-node replication.

    The radix walk model charges each of the four levels of a page
    walk with the latency of the node that holds that level's
    page-table page.  This module answers "which node is that?": by
    default every level of a domain's tables lives on its first home
    node (Xen allocates PT pages from the domain's initial
    allocation), so vCPUs on other nodes pay remote latency on every
    walk level.

    The [replicate-pt] policy (Mitosis, see PAPERS.md) mirrors the
    whole table onto each of the domain's nodes: walks then resolve
    entirely from the local mirror, and every P2M mutation is
    propagated to all mirrors at {!Costs.pt_replica_update_time}.
    Mirrors are kept translation-equivalent to the primary by
    replaying its {!P2m.update} stream verbatim — including splinter,
    promote and every batch element — which is the invariant the
    [xen.pt] qcheck suite pins. *)

type t

val levels : int
(** Walk depth the placement covers (4, matching
    [Guest.Tlb.walk_levels]). *)

val create :
  ?replicate_nodes:int array -> home_node:int -> frames:int -> sp_frames:int -> unit -> t
(** Placement for a domain whose page tables live on [home_node].
    [replicate_nodes] (default [[||]], i.e. no replication) lists the
    nodes that receive a full mirror, each an empty {!P2m.t} of the
    same geometry — create the placement {e before} populating the
    primary so the mirrors see its whole update stream.
    @raise Invalid_argument on a negative node. *)

val replicated : t -> bool
val replica_count : t -> int

val level_node : t -> level:int -> node:int -> int
(** Node that serves walk level [level] for a walker on [node]: the
    walker's own node when replicated (local mirror), the primary's
    placement otherwise.
    @raise Invalid_argument if [level] is outside [\[0, levels)]. *)

val apply : t -> P2m.update -> unit
(** Propagate one primary mutation to every mirror and bump the
    matching counter.  No-op without replicas.  Write-propagation cost
    is the caller's accounting ({!Costs.pt_replica_update_time}). *)

val replica_updates : t -> int
(** Cumulative per-mirror entry writes (set / superpage map /
    promote). *)

val replica_invalidations : t -> int
(** Cumulative per-mirror invalidations (clear / splinter). *)

val check_consistent : t -> primary:P2m.t -> bool
(** [true] iff every mirror is translation-equivalent to [primary]:
    same geometry, same per-pfn entries and superpage membership, same
    mapped/superpage counts, and internally consistent.  O(replicas x
    frames) — test use. *)
