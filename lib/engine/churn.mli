(** Page-release churn: the guest freeing pages back through the
    paper's batched external interface (Sections 4.2.3–4.2.4), and the
    engine's one fault-plan fork.

    A VM churns when it runs under a hypervisor, its policy invalidates
    free pages and its app releases pages.  Clean runs price the churn
    by formula ({!overhead}).  Under a fault plan the churn is also
    concrete: a {!Guest.Pv_queue} carries real alloc/release pairs to
    the manager's page-ops hypercall each full epoch, so dropped ops
    and lost batches leave stale P2M entries, and the guest reports its
    free list to the manager tick, which turns the reconcile sweeps on.
    [Faults.Injector.enabled] is read here and nowhere else in the
    engine.

    {b State owned:} the concrete queue (with its fault hooks and
    trace stream), the release period and whether the guest reports
    its free list.

    {b Run state read and written:} the guest's {!Guest.Pfn_pool}
    (allocated and released by {!epoch}) and the domain (P2M faults
    charged to its ledger); the queue's flushes call
    {!Policies.Manager.page_ops_hypercall}. *)

type t

val create :
  Config.t -> Config.vm_spec -> system:Xen.System.t -> injector:Faults.Injector.t ->
  obs:Obs.Stream.t option -> manager:Policies.Manager.t -> domain:Xen.Domain.t ->
  pool:Guest.Pfn_pool.t -> t
(** Decide the VM's churn model; a concrete queue gets the injector's
    op-drop hook and the run's trace stream (labelled by the domain). *)

val concrete : t -> bool
(** A concrete queue churns: such a VM never arms the fast-forward. *)

val guest_free : t -> Memory.Page.pfn list option
(** The guest's free list for {!Policies.Manager.epoch_tick} under a
    fault plan, [None] otherwise. *)

val epoch : t -> unit
(** One full epoch of concrete churn: up to 64 alloc/release pairs
    through the queue (one per release period), faulting each
    unmapped page in from a vCPU's pCPU.  A no-op without a concrete
    queue.  Profiled as [churn]; [pv.flush] nests inside. *)

val overhead : t -> active_seconds:float -> float
(** The analytic release cost per vCPU over [active_seconds]: one
    release per period, each a 128-op batch's share of a hypercall
    entry plus an op send, an invalidation, a fault and a remap; 0.0
    when the VM does not churn. *)
