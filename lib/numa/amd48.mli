(** The paper's evaluation machine: AMD48.

    Four Opteron 6174 sockets, two NUMA nodes per socket, 6 CPUs at
    2.2 GHz and 16 GiB of RAM per node (48 cores, 128 GiB total).
    Memory controllers peak at 13 GiB/s; HyperTransport links at
    6 GiB/s (intra-socket) or 3 GiB/s (inter-socket, the asymmetric
    half-width links), with a network diameter of two hops.  Nodes 0
    and 6 each host a PCI express bus: dom0's network and disk sit on
    node 0's bus, the benchmark/dataset disk on node 6's. *)

val freq_hz : float
val cache_line : int

val pci_bus_nodes : int list
(** Nodes whose PCI express bus hosts devices, in bus order
    ([\[0; 6\]]). *)

val topology : unit -> Topology.t
(** Fresh AMD48 topology (cheap; routing tables are precomputed once
    per call). *)

val latency : Latency.t
(** Latency model calibrated on Table 3: caches 5/16/48 cycles; memory
    156/276/383 cycles uncontended and 697/740/863 cycles contended for
    0/1/2 hops. *)
