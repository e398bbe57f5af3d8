(** NUMA machine topology: nodes, CPUs, interconnect links, routing.

    A machine is a set of NUMA nodes, each holding CPUs and a memory
    bank behind a memory controller, connected by directed interconnect
    links (HyperTransport on the paper's AMD48).  Memory accesses from a
    CPU of node [src] to memory of node [dst] follow the precomputed
    shortest route and consume bandwidth on every traversed link. *)

type node = int
(** NUMA node identifier, [0 .. node_count - 1]. *)

type cpu = int
(** Global CPU identifier, [0 .. cpu_count - 1]. *)

type link = private {
  link_id : int;
  src : node;
  dst : node;
  gib_per_s : float;  (** Capacity of this direction of the link. *)
}

type t

val create :
  nodes:int ->
  cpus_per_node:int ->
  mem_per_node:int ->
  controller_gib_per_s:float ->
  links:(node * node * float) list ->
  t
(** [create ~nodes ~cpus_per_node ~mem_per_node ~controller_gib_per_s ~links]
    builds a topology.  Each [(a, b, gib)] in [links] declares a
    bidirectional link realised as two directed links of capacity [gib]
    each.  The link graph must connect all nodes.  [mem_per_node] is in
    bytes.
    @raise Invalid_argument if the graph is disconnected or a link
    endpoint is out of range. *)

val node_count : t -> int
val cpu_count : t -> int
val cpus_per_node : t -> int
val mem_per_node : t -> int
val total_mem : t -> int
val controller_gib_per_s : t -> float

val node_of_cpu : t -> cpu -> node
(** CPUs are numbered node-major: CPU [c] lives on node
    [c / cpus_per_node]. *)

val cpu_array_of_node : t -> node -> cpu array
(** The node's CPU ids as a precomputed array, built once at topology
    creation: O(1), allocation-free.  The array is shared — do not
    mutate it.  (The deprecated list-allocating [cpus_of_node] variant
    has been removed; wrap this in [Array.to_list] if a list is really
    wanted.) *)

val links : t -> link array
(** All directed links, indexed by [link_id]. *)

val distance : t -> node -> node -> int
(** Hop count of the shortest route; 0 for a local access. *)

val diameter : t -> int

val route : t -> node -> node -> int array
(** The [link_id]s of the directed links traversed from [src] to [dst],
    in order; empty when [src = dst].  Routes are deterministic
    (lowest-neighbour-first breadth-first search), matching static HT
    routing tables.  The array is precomputed at topology creation and
    shared — do not mutate it; walking it allocates nothing. *)

val neighbours : t -> node -> node list

(** {2 Dynamic node mask (RAS)}

    Every node starts online.  A failing or offlined node is removed
    from the mask and every placement policy (interleave, round-1g/4k,
    first-touch, Carrefour decide) must skip it when choosing a
    destination.  The mask is per-topology mutable state; each run
    builds its own topology, so runs never observe each other. *)

val node_online : t -> node -> bool

val set_node_online : t -> node -> bool -> unit

val pp : Format.formatter -> t -> unit
