(** The hypervisor system: machine memory, domains, vCPU placement.

    Implements Xen's NUMA-aware domain builder: a new domain is packed
    onto the minimal number of underloaded NUMA nodes that can host one
    physical CPU per vCPU and the domain's memory — these become its
    {e home nodes} — and its vCPUs are pinned there.  Memory is NOT
    populated at creation: the boot NUMA policy does that (round-1G or
    round-4K), which lives in the [policies] library. *)

type fault_hooks = {
  mutable migrate_alloc_fails : unit -> bool;
      (** Consulted by [Internal.migrate_page] before the target-node
          allocation; [true] injects an ENOMEM. *)
  mutable hypercall_transient : unit -> bool;
      (** [true] makes the hypercall fail transiently: the guest
          retries immediately and pays the entry cost again. *)
  mutable batch_lost : int -> bool;
      (** Called with the batch size before a page-ops batch is
          replayed; [true] loses the batch in transit. *)
}

type t = {
  topo : Numa.Topology.t;
  machine : Memory.Machine.t;
  costs : Costs.t;
  mutable domains : Domain.t list;
  pcpu_load : int array;  (** Number of vCPUs pinned to each pCPU. *)
  mutable next_id : int;
  faults : fault_hooks;
      (** Fault-injection sites; installed by [Faults.Injector.install],
          inert otherwise. *)
  mutable obs : Obs.Stream.t option;
      (** Trace stream for this system's run; [None] (the default)
          keeps every instrumentation site a no-op. *)
}

val create : ?page_scale:int -> ?costs:Costs.t -> Numa.Topology.t -> t

val set_obs : t -> Obs.Stream.t option -> unit
(** Attach (or detach) the trace stream the instrumented layers emit
    to.  The engine installs one stream per simulated run. *)

val create_domain :
  t ->
  name:string ->
  kind:Domain.kind ->
  vcpus:int ->
  mem_bytes:int ->
  ?home_nodes:Numa.Topology.node array ->
  unit ->
  Domain.t
(** Builds a domain.  When [home_nodes] is omitted, selects the
    [max(ceil(vcpus / cpus_per_node), ceil(mem / mem_per_node))] least
    loaded nodes.  vCPUs are pinned one per pCPU across the home nodes,
    least-loaded pCPU first (consolidation stacks several vCPUs per
    pCPU once all are busy).
    @raise Invalid_argument if the request cannot fit the machine. *)

val destroy_domain : t -> Domain.t -> unit
(** Unmaps and frees every machine frame held by the domain's P2M. *)
