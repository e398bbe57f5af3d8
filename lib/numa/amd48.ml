let nodes = 8
let cpus_per_node = 6
let mem_per_node = 16 * 1024 * 1024 * 1024
let freq_hz = 2.2e9
let cache_line = 64
let controller_gib_per_s = 13.0
let pci_bus_nodes = [ 0; 6 ]

(* HyperTransport graph: full-width (6 GiB/s) links join the two dies of
   each socket; half-width (3 GiB/s) links join sockets, arranged so
   every pair of nodes is at most two hops apart — the asymmetric
   bandwidth and two-hop diameter described in Section 5.1. *)
let link_spec =
  [
    (* intra-socket die pairs *)
    (0, 1, 6.0); (2, 3, 6.0); (4, 5, 6.0); (6, 7, 6.0);
    (* inter-socket ring *)
    (0, 2, 3.0); (1, 3, 3.0); (2, 4, 3.0); (3, 5, 3.0);
    (4, 6, 3.0); (5, 7, 3.0); (6, 0, 3.0); (7, 1, 3.0);
    (* diagonals *)
    (0, 5, 3.0); (1, 4, 3.0); (2, 7, 3.0); (3, 6, 3.0);
  ]

let topology () =
  Topology.create ~nodes ~cpus_per_node ~mem_per_node ~controller_gib_per_s
    ~links:link_spec

let latency =
  Latency.create
    ~mem_base_cycles:[| 156.0; 276.0; 383.0 |]
    ~mem_contended_delta:[| 541.0; 464.0; 480.0 |]
    ()
