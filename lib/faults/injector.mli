(** Deterministic fault injector.

    One injector per run: it owns a private splitmix64 stream derived
    from the run seed (never shared with the workload RNGs), walks the
    {!Plan} on every query, and counts what it injected.  Because every
    run builds its own injector from its own seed, grid sweeps stay
    bit-reproducible at any worker count — the same guarantee
    [Runs.cell_seed] gives the experiment grids.

    Queries only draw from the stream while at least one matching spec
    is armed for the current epoch, so an empty (or dormant) plan
    perturbs nothing. *)

type stats = {
  mutable alloc_failures : int;   (** Vetoed machine-frame allocations. *)
  mutable migrate_failures : int; (** Injected migrate-target ENOMEMs. *)
  mutable batches_lost : int;     (** Page-ops batches lost in transit. *)
  mutable ops_dropped : int;      (** Queue ops dropped on overflow. *)
  mutable hypercall_errors : int; (** Transient hypercall failures. *)
  mutable iommu_faults : int;     (** Injected asynchronous IOMMU faults. *)
  mutable vcpu_stalls : int;      (** Stolen vCPU epochs. *)
  mutable ecc_ce_errors : int;    (** Correctable ECC errors (scrubbed). *)
  mutable ecc_ue_errors : int;    (** Uncorrectable ECC errors (offlined). *)
  mutable node_failures : int;    (** Nodes that entered the failing state. *)
}

type t

val create : seed:int -> Plan.t -> t
(** The injector's stream is a pure function of [seed]; epoch starts at
    [-1] (boot), where no spec is ever armed. *)

val enabled : t -> bool
(** [false] for an empty plan: every query is a constant [false]. *)

val set_epoch : t -> int -> unit
(** Advance the injection clock; windows are evaluated against it. *)

val next_armed_epoch : t -> after:int -> int option
(** Earliest epoch [>= after] at which any spec window (or resolved
    node-failure window, including the forever-armed tail of a
    permanent failure) is armed; [None] when no window can ever arm
    again.  Pure — no draws and no dependence on the injection clock —
    so callers may probe any epoch (the engine's fast-forward asks
    [~after:e = Some e] of each epoch [e] it might replay, and of
    [e + 1] when it arms) without perturbing the stream. *)

(* Per-site queries: [true] means the fault fires now.  Each query
   updates {!stats} when it fires. *)

val alloc_fails : t -> node:Numa.Topology.node -> bool
val migrate_fails : t -> bool
val batch_lost : t -> ops:int -> bool
val op_dropped : t -> bool
val hypercall_fails : t -> bool
val iommu_faults : t -> bool
val vcpu_stalls : t -> bool

(** {2 Hardware RAS: ECC errors and node failure} *)

val assign_node_targets : t -> ?candidates:int array -> nodes:int -> unit -> unit
(** Draw the target node of every [Node_fail] spec from the private
    stream, once, in plan order — call before epoch 0.  A non-empty
    [candidates] restricts the draw to those nodes (the engine passes
    the union of guest home nodes, so a failure always lands where
    memory lives); exactly one draw per spec either way.  Idempotent:
    later calls never re-draw. *)

val node_failing : t -> node:Numa.Topology.node -> bool
(** The node is inside an armed failing window (or permanently failed).
    No draws; failing nodes also veto allocations via
    {!alloc_fails}. *)

val node_offline : t -> node:Numa.Topology.node -> bool
(** A permanent ([rate >= 1.0]) failure's drain window has closed: the
    node is gone for good. *)

val node_bandwidth_factor : t -> node:Numa.Topology.node -> float
(** Bandwidth multiplier in [\[0, 1\]]: 1.0 while healthy, collapsing
    linearly towards [1 - rate] across the drain window.  Pure — no
    draws. *)

val node_fail_targets : t -> Numa.Topology.node list
(** Target nodes of the plan's [Node_fail] specs, in plan order (empty
    until {!assign_node_targets} ran). *)

type ecc_event = Ce of int | Ue of int  (** pfn payload *)

val ecc_events : t -> frames:int -> ecc_event list
(** Per-epoch ECC draws for one domain of [frames] guest frames, in
    plan order.  Every armed ECC spec draws a bernoulli {e and} a
    uniform pfn whether or not it fires, so the stream advance is a
    function of the plan and epoch alone.  Call from the runner's
    sequential per-epoch section, in VM order. *)

val stats : t -> stats
val total_injected : t -> int

val install : t -> Xen.System.t -> unit
(** Arm the hypervisor-side fault sites: the machine allocator veto
    (transient flakiness and offline nodes) and the
    {!Xen.System.fault_hooks} consulted by the internal interface, the
    hypercall layer and the IOMMU. *)

val install_queue : t -> Guest.Pv_queue.t -> unit
(** Arm the guest-side queue site (op drop) on a para-virtualized
    queue.  Batch loss is drawn by the page-ops hypercall, once per
    batch. *)
