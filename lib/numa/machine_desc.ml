type t = {
  name : string;
  topology : unit -> Topology.t;
  latency : Latency.t;
  freq_hz : float;
  cache_line : int;
  pci_bus_nodes : int list;
}

let amd48 =
  {
    name = "amd48";
    topology = Amd48.topology;
    latency = Amd48.latency;
    freq_hz = Amd48.freq_hz;
    cache_line = Amd48.cache_line;
    pci_bus_nodes = Amd48.pci_bus_nodes;
  }

(* Four sockets, QPI full mesh: every remote access is one hop over a
   wider (8 GiB/s) link, against a 25 GiB/s controller.  Latencies in
   the style of a 2.7 GHz Sandy Bridge EP: local ~180 cycles, remote
   ~310; contention inflates less than on AMD48 because the mesh offers
   more bisection bandwidth per node. *)
let intel32 =
  {
    name = "intel32";
    topology =
      (fun () ->
        Topology.create ~nodes:4 ~cpus_per_node:8 ~mem_per_node:(32 * 1024 * 1024 * 1024)
          ~controller_gib_per_s:25.0
          ~links:[ (0, 1, 8.0); (0, 2, 8.0); (0, 3, 8.0); (1, 2, 8.0); (1, 3, 8.0); (2, 3, 8.0) ]);
    latency =
      Latency.create ~l1_cycles:4.0 ~l2_cycles:12.0 ~l3_cycles:40.0
        ~mem_base_cycles:[| 180.0; 310.0 |]
        ~mem_contended_delta:[| 420.0; 390.0 |]
        ();
    freq_hz = 2.7e9;
    cache_line = 64;
    pci_bus_nodes = [ 0; 2 ];
  }

let all = [ amd48; intel32 ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun m -> String.lowercase_ascii m.name = name) all
