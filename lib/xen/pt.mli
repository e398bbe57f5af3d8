(** Page-table placement and the per-node replication count.

    The radix walk model charges each level of a page walk with the
    latency of the node that holds that level's page-table page.  This
    module answers "which node is that?": every level of a domain's
    tables lives on its first home node (Xen allocates PT pages from
    the domain's initial allocation), so vCPUs on other nodes pay
    remote latency on every walk level.

    The [replicate-pt] policy (Mitosis, see PAPERS.md) mirrors the
    tables onto each of the domain's nodes: walks then resolve from
    the walker's local node, and every P2M mutation is propagated to
    all mirrors at {!Costs.pt_replica_update_time}.  Only those two
    effects are observable, so a mirror is a count, not a copy: a
    mirror that replays the primary's {!P2m.update} stream holds the
    primary's translations by construction (the [xen.p2m] qcheck suite
    pins that the stream is complete), and no reader needs its
    entries. *)

type t

val create : ?replicas:int -> home_node:int -> unit -> t
(** Placement for a domain whose page tables live on [home_node].
    [replicas] (default 0, i.e. no replication) is the number of
    per-node mirrors.
    @raise Invalid_argument on a negative [home_node] or [replicas]. *)

val replicated : t -> bool
val replica_count : t -> int

val walk_node : t -> node:int -> int
(** Node that serves every level of a walk by a walker on [node]: the
    walker's own node when replicated (local mirror), the home node
    otherwise. *)

val apply : t -> P2m.update -> unit
(** Count one primary mutation's propagation to every mirror: bump the
    matching counter by the mirror count.  No-op without replicas.
    Write-propagation cost is the caller's accounting
    ({!Costs.pt_replica_update_time}). *)

val replica_updates : t -> int
(** Cumulative per-mirror entry writes (set / superpage map /
    promote). *)

val replica_invalidations : t -> int
(** Cumulative per-mirror invalidations (clear / splinter). *)
