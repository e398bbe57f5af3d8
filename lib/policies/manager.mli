(** Per-domain NUMA policy engine: the paper's {e external interface}
    (Section 4.2) plus the boot-time placement.

    A domain boots with an eager placement ({!Spec.boot}).  At runtime,
    the first hypercall ({!set_policy}) switches the placement to
    first-touch and/or toggles Carrefour; the second hypercall
    ({!page_ops_hypercall}) delivers the guest's batched
    allocation/release queue, from which the first-touch policy
    invalidates the P2M entries of free pages so their next touch
    faults into the hypervisor and lands them on the toucher's node.
    {!switch} is that sequence as the guest runs it at boot: the
    set-policy hypercall, then the whole free-list report when the new
    policy invalidates free pages.

    The manager also owns what its policy implies for the engine's
    epoch loop: {!epoch_tick} decides whether the domain runs reconcile
    sweeps, and {!boundary_due} names the epochs at which period-gated
    work (the Carrefour feed, the promotion scan, the sweeps) fires, so
    the engine's fast-forward runs them in full.  The three periods are
    defined here and nowhere else. *)

type stats = {
  mutable populated_1g : int;   (** 1 GiB regions placed at boot. *)
  mutable populated_2m : int;
  mutable populated_4k : int;
  mutable invalidated : int;    (** Free pages whose entry was cleared. *)
  mutable left_in_place : int;  (** Reallocated-while-queued pages kept. *)
  mutable first_touch_maps : int;  (** Pages placed by the fault path. *)
  mutable splinters : int;
      (** Superpage extents demoted on this policy's behalf (first-touch
          invalidations, single-page migrations, reconcile sweeps). *)
  mutable promotes : int;  (** Extents re-coalesced in place by the scan. *)
  mutable superpage_migrates : int;
      (** Extents the scan migrated onto a fresh contiguous block to
          make them promotable (the expensive path). *)
}

type degrade = {
  mutable migrate_retries : int;
      (** Extra migration attempts after a transient ENOMEM. *)
  mutable backoff_time : float;
      (** Simulated time spent in exponential backoff pauses. *)
  mutable deferred : int;  (** Migrations pushed to the retry queue. *)
  mutable drained : int;  (** Deferred migrations later completed. *)
  mutable fallback_maps : int;
      (** [map_page] placements that fell back off the wanted node
          (misplacement debt, repaid by the drain). *)
  mutable breaker_trips : int;
  mutable breaker_level : int;
      (** 0 = full policy, 1 = interleave-only, 2 = static placement. *)
  mutable lost_batches : int;  (** Page-ops batches lost in transit. *)
  mutable reconciled : int;  (** Stale P2M entries healed by the sweeps. *)
  mutable ecc_ce : int;  (** Correctable ECC errors scrubbed in place. *)
  mutable ecc_ue : int;  (** Uncorrectable ECC errors handled. *)
  mutable offlined : int;  (** Machine frames retired by the UE handler. *)
  mutable evacuated : int;  (** Frames moved off failing nodes. *)
  mutable evac_epochs : int;  (** Epochs an evacuation was in progress. *)
}

type t

val attach :
  ?carrefour_config:Carrefour.User_component.config ->
  ?superpages:bool ->
  ?pt_walk:bool ->
  ?replicate_pt:bool ->
  Xen.System.t ->
  Xen.Domain.t ->
  boot:Spec.t ->
  rng:Sim.Rng.t ->
  t
(** Populate the domain's memory per the boot placement (nothing for a
    first-touch boot: every entry starts invalid) and install the
    hypervisor fault handler.  With [superpages] (default [false]),
    aligned contiguous blocks placed by the round-1G boot path are
    installed as 2 MiB P2M superpage entries, per-frame operations
    splinter them (charging {!Xen.Costs.splinter_time}), and
    {!epoch_tick} periodically runs the {!promote_scan}.

    With [pt_walk] (default [false]) a {!Xen.Pt.t} placement is
    created — all four walk levels on the domain's first home node —
    for the engine's radix walk model.  With [replicate_pt] (default
    [false]) the placement additionally mirrors the P2M onto every
    home node: the replica-maintenance hook is installed {e before}
    the boot population so the mirrors replay the primary's whole
    update stream, and every subsequent P2M mutation charges
    {!Xen.Costs.pt_replica_update_time} (or the invalidate variant) to
    the domain's [pt_replica_time] account.
    @raise Invalid_argument when machine memory cannot back the
    domain. *)

val stats : t -> stats

val set_policy : t -> Spec.t -> (unit, string) result
(** The policy-selection hypercall.  Fails on non-runtime-selectable
    specs (round-1G is boot-only).  Charges one hypercall. *)

val switch : t -> Spec.t -> (unit, string) result
(** The policy switch as the guest performs it right after boot: the
    {!set_policy} hypercall, then — when the new policy invalidates
    free pages ({!Spec.invalidates_free_pages}) — the guest's whole
    free list, which at boot is every guest frame, reported through
    {!release_free_range}.  A no-op when [spec] is already in force. *)

val page_ops_hypercall : t -> Guest.Pv_queue.op array -> float
(** The batched page-ops hypercall.  Input contract: at most one op
    per pfn — the most recent one, which is what a {!Guest.Pv_queue}
    flush delivers.  Each op is applied once: a Release invalidates the
    P2M entry and frees the machine frame, an Alloc (a page reallocated
    while queued) leaves the page on its current node.  Returns the hypercall duration (the guest holds
    the partition lock for that long) and charges it to the domain.
    Under a non-first-touch placement the queue is accepted but entries
    are only accounted, never invalidated. *)

val release_free_range : t -> first:Memory.Page.pfn -> count:int -> float
(** The guest reports the free pages [\[first, first + count)]: the same
    as {!page_ops_hypercall} over Release entries split into 128-op
    chunks, one Page_ops hypercall each (loss faults, costs, stats),
    but each chunk goes straight into the batched P2M invalidate
    without materialising the ops.  Returns the summed hypercall
    time. *)

val carrefour : t -> Carrefour.System_component.t option
(** The Carrefour system component, present while the spec has
    Carrefour enabled. *)

val carrefour_epoch_feed :
  t ->
  counters:Numa.Counters.t ->
  feed:(Carrefour.System_component.t -> unit) ->
  Carrefour.report option
(** One Carrefour period: [feed] is called once (after
    {!Carrefour.System_component.begin_epoch}, before the user
    component runs) to push the epoch's samples into the heat table
    with {!Carrefour.System_component.record_sample}, then the user
    component runs.  [None], without calling [feed], when Carrefour is
    off or the circuit breaker is open.  Migrations go through the
    resilient path; the breaker window is evaluated after each period
    and may trip (suspending the policy for a cooldown) or escalate
    the degradation level. *)

val migrate_resilient : t -> pfn:Memory.Page.pfn -> node:Numa.Topology.node -> bool
(** Migration with graceful degradation: on transient ENOMEM, retry up
    to 3 times with exponential backoff (simulated time charged to the
    domain); on persistent failure, defer the page to the bounded
    per-domain retry queue and return [false]. *)

val epoch_tick : t -> epoch:int -> ?guest_free:Memory.Page.pfn list -> unit -> unit
(** Per-epoch housekeeping: advance the manager's epoch clock, drain a
    budget of deferred migrations (unless the breaker is open), run the
    {!promote_scan} every {e promote period} epochs (when superpages
    are enabled and the domain is not statically degraded), and run
    the {!reconcile} sweep over [guest_free] every {e reconcile period}
    epochs while the domain sweeps.  A domain sweeps when its guest
    reports its free list on the tick ([guest_free] given; the engine
    does so under a fault plan) and its placement invalidates free
    pages.  [guest_free] is the guest's free list
    ({!Guest.Pfn_pool.free_pfns}, an O(1) read).  The scan and the
    sweep are profiled as [manager.promote_scan] and
    [manager.reconcile], nested in the caller's [manager.epoch_tick]. *)

val carrefour_due : t -> epoch:int -> bool
(** Carrefour is on and [epoch] is a multiple of its period (10 epochs,
    once per simulated second): the engine runs
    {!carrefour_epoch_feed} at exactly these epochs. *)

val boundary_due : t -> epoch:int -> bool
(** Periodic work fires at [epoch]: the Carrefour feed
    ({!carrefour_due}), the {!promote_scan} (superpages on, the domain
    not statically degraded, every 10 epochs from 10) or the
    {!reconcile} sweep (the domain sweeps as of the last
    {!epoch_tick}, every 50 epochs from 50).  {!epoch_tick} reads the
    same per-period predicates, so the two cannot disagree.  The
    engine's fast-forward never replays such an epoch. *)

val promote_scan : t -> int
(** One budgeted pass of the superpage promotion scan: examine a
    window of extents behind a rotating cursor and re-coalesce the
    fully mapped single-node ones — in place when the machine frames
    are already contiguous and aligned, otherwise by migrating the
    extent onto a freshly allocated contiguous block
    (superpage-migrate).  Charges {!Xen.Costs.promote_time} to the
    domain's migration account.  Returns the number of extents
    promoted; 0 when superpages are disabled.  Deterministic: cursor
    order only, no randomness.  An extent's classification stops at its
    first disqualifying frame: a hole, a second node or a writable bit
    that differs from the first frame's. *)

val promote_cursor : t -> int
(** The extent index the next {!promote_scan} starts at. *)

val superpages_enabled : t -> bool

val pt : t -> Xen.Pt.t option
(** The page-table placement, present iff [attach] was given
    [pt_walk] or [replicate_pt]. *)

val reconcile : t -> guest_free:Memory.Page.pfn list -> int
(** P2M / guest-free-list reconciliation: invalidate and free every
    mapped page in [guest_free], healing entries stranded by lost
    release batches, dropped ops or failed hypercalls.  [guest_free]
    lists the guest's free pfns, each once, in any order.  The stale
    pages are healed in descending pfn order, splintering a superpage
    first when one still covers the page.  Returns the number of pages
    healed; charges one hypercall plus the invalidation costs.  Costs
    O(|guest_free|) plus a sort of the stale pages, not a P2M walk.

    @raise Invalid_argument naming the mfn and pfn when an offlined
    machine frame is still mapped (the RAS invariant).  That check walks
    the P2M, but only once the machine has offlined a frame. *)

(** {2 Hardware RAS} *)

val handle_ecc_ce : t -> pfn:Memory.Page.pfn -> unit
(** Correctable ECC on the frame backing [pfn]: charge the scrub stall
    and trace the heat event.  No-op on an unmapped pfn. *)

val handle_ecc_ue : t -> pfn:Memory.Page.pfn -> unit
(** Uncorrectable ECC: offline the backing mfn (it retires when
    freed), remap the guest frame onto a freshly allocated one
    (splinter-aware) and charge the copy.  No-op on an unmapped pfn;
    if the machine is full the poisoned frame stays mapped as
    offline-pending. *)

val request_evacuation : t -> node:Numa.Topology.node -> unit
(** Start draining every frame this domain holds on [node]:
    {!epoch_tick} moves a budget of frames per epoch in grouped batches
    round-robin over the surviving online nodes, with exponential
    backoff, deferred-queue spillover and circuit-breaker escalation on
    persistent ENOMEM.  Idempotent while an evacuation of the same node
    is in progress. *)

val cancel_evacuation : t -> node:Numa.Topology.node -> unit
(** Stop the evacuation of [node] (the node recovered). *)

val evacuating : t -> int
(** Node currently being evacuated, [-1] when none. *)

val degrade : t -> degrade
val pending_migrations : t -> int

val quiescent : t -> bool
(** No deferred work is pending: the migration queue and the node
    evacuation engine are drained, the circuit breaker is closed (with
    its cooldown event already emitted) and its evaluation window is
    below the trip threshold, so a skipped evaluation is a no-op.
    When [quiescent] holds, an {!epoch_tick} that is not a
    promote-scan or reconcile boundary only advances the manager's
    epoch clock — the engine's steady-state fast-forward relies on
    this on the epochs it replays. *)

val node_of_pfn : t -> Memory.Page.pfn -> Numa.Topology.node option
