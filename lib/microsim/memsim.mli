(** Request-level discrete-event simulation of the memory system.

    Where the engine uses a closed-form latency model (calibrated on
    the paper's Table 3), this module {e derives} those numbers from
    first principles: CPU agents issue cache-line requests that
    traverse HyperTransport links (wire delay + serialization on a
    FIFO link server), queue at the destination memory controller
    (a bank pool), and return.  A closed-loop agent with a window of 1
    is the classical pointer-chasing latency probe; wider windows
    exercise memory-level parallelism and measure achievable
    throughput — which is how the engine's "55 % of streaming peak"
    random-access efficiency constant is obtained.

    Everything is deterministic given the seed; the event queue is
    {!Sim.Eventq}. *)

type params = {
  cpu_overhead_ns : float;
      (** On-die time per miss: L1/L2/L3 lookup, miss handling. *)
  dram_service_ns : float;  (** Access latency contributed to the request. *)
  dram_occupancy_ns : float;
      (** Bank busy time per request (the DRAM cycle time tRC); at
          least [dram_service_ns]. *)
  dram_banks : int;  (** Parallel banks per controller. *)
  hop_wire_ns : float;  (** Wire/router latency per link traversal. *)
  flit_bytes : float;  (** Transfer unit on links (a cache line). *)
}

type result = {
  requests : int;
  mean_latency_ns : float;
  p95_latency_ns : float;
  throughput_gib_s : float;  (** Payload delivered per second. *)
  duration_s : float;  (** Simulated time covered. *)
  per_agent_mean_ns : float array;
}

val run :
  ?params:params ->
  ?seed:int ->
  topo:Numa.Topology.t ->
  agents:(Numa.Topology.node * Numa.Topology.node) list ->
  window:int ->
  requests_per_agent:int ->
  unit ->
  result
(** [run ~topo ~agents ~window ~requests_per_agent ()] — each
    [(cpu_node, mem_node)] pair is one closed-loop agent keeping
    [window] requests outstanding against [mem_node]'s controller.
    Simulates until every agent completed its request budget. *)

val latency_probe :
  ?params:params -> topo:Numa.Topology.t -> threads:int -> hops:int -> unit -> result
(** The Table 3 experiment: [threads] window-1 agents all targeting one
    node at the given hop distance (agent CPUs sit on a node [hops]
    away; 0 = local). *)

val bandwidth_probe :
  ?params:params -> topo:Numa.Topology.t -> threads:int -> window:int -> unit -> result
(** Aggregate achievable throughput of one controller under
    memory-level parallelism: [threads] local agents with [window]
    outstanding requests each. *)

val random_access_efficiency : ?params:params -> topo:Numa.Topology.t -> unit -> float
(** Achievable random-access throughput of one controller divided by
    its streaming peak — the engine's bandwidth-clamp constant. *)
