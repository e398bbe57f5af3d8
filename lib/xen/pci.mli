(** PCI express buses and the passthrough driver's bus-granularity
    restriction.

    The AMD IOMMU can associate devices to VMs at device granularity,
    but Xen's PCI passthrough driver only assigns whole PCI express
    buses.  AMD48 has two buses (on nodes 0 and 6); reserving one bus
    for a domU leaves the other for dom0 — the setting used by Xen+
    (Section 2.2.2). *)

type device = Disk | Network

type bus = {
  bus_id : int;
  node : Numa.Topology.node;  (** Node whose I/O controller hosts the bus. *)
  devices : device list;
}

type t

val amd48 : unit -> t
(** Two buses: bus 0 on node 0 (dom0's network and disk), bus 1 on
    node 6 (the benchmark/dataset disk). *)

val buses : t -> bus list

val assign_bus : t -> bus_id:int -> Domain.t -> (unit, string) result
(** Assign a whole bus to a domain for passthrough.  Fails if the bus
    is already assigned to another domain. *)

val domain_has_passthrough : t -> Domain.t -> device -> bool
(** Whether the domain owns a bus carrying the given device. *)
