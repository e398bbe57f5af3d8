(** The engine's cost formulas.

    Pure functions of the configuration, a VM's spec and the state
    they are handed; no state of their own.  The runner prices each
    epoch's sync overhead and page walks with them, and
    {!Outcome.vm_result} the I/O path. *)

val costs_of_mode : Config.mode -> Xen.Costs.t
(** Native costs under [Linux] (no hypercalls, cheap minor faults,
    native wake-ups), {!Xen.Costs.default} under a hypervisor. *)

val io_path : Config.mode -> Policies.Spec.t -> [ `Native | `Pv | `Passthrough ]
(** Linux is native, stock Xen uses dom0's pv drivers, Xen+ uses PCI
    passthrough unless the policy invalidates free pages (the IOMMU
    cannot tolerate invalid P2M entries). *)

val superpage_fraction : Xen.P2m.t -> float
(** Fraction of the mapped guest frames behind 2 MiB P2M entries. *)

val huge_fraction : Config.vm_spec -> Xen.P2m.t -> float
(** The share of the footprint the TLB reaches through 2 MiB entries:
    1.0 under guest [huge_pages], else the live
    {!superpage_fraction}, which stays 0.0 without P2M superpages. *)

val walk_cpi : Config.t -> Config.vm_spec -> huge_fraction:float -> float
(** Flat page-walk cycles per instruction at the given huge-mapped
    share ({!Guest.Tlb.cycles_per_access_mixed}); at 0.0 and 1.0 this
    is the flat 4 KiB and 2 MiB cost bit for bit. *)

val walk_cpi_radix :
  Config.t -> Config.vm_spec -> huge_fraction:float -> pt:Xen.Pt.t -> thread_node:int array ->
  topo:Numa.Topology.t -> latency:Numa.Latency.t -> float
(** Radix page-walk cycles per instruction ([--pt-walk]): each level is
    priced at the unsaturated latency of the node backing the page
    tables for each thread's node, relative to a local access. *)

val epoch_sync_overhead : Config.t -> Config.vm_spec -> float
(** Blocked time per vCPU per epoch from the app's halting
    synchronisation events: zero under MCS spin locks, two context
    switches plus a wake-up per event otherwise, capped at 85% of the
    epoch. *)
