(** Xen domains (virtual machines).

    A domain owns a set of vCPUs pinned to physical CPUs, a
    guest-physical address space of [mem_frames] frames behind a
    {!P2m.t}, and the set of home NUMA nodes the domain builder packed
    it onto.  Policies install a [fault_handler] to be called on
    hypervisor page faults (first touch of an invalid P2M entry).

    The [account] accumulates the virtualization time the domain spent
    in each mechanism; the engine folds it into completion time. *)

type kind = Dom0 | DomU

type account = {
  mutable hypercall_time : float;
  mutable hypercall_count : int;
  mutable fault_time : float;
  mutable fault_count : int;
  mutable migrate_time : float;
  mutable migrated_pages : int;
  mutable io_time : float;
  mutable io_requests : int;
  mutable ipi_time : float;
  mutable ipi_count : int;
  mutable pt_replica_time : float;
      (** Write-propagation time into replicated page tables. *)
  mutable pt_replica_ops : int;
      (** Primary P2M mutations propagated to the mirrors. *)
}

type t = {
  id : int;
  name : string;
  kind : kind;
  vcpus : int;
  mem_frames : int;
  p2m : P2m.t;
  home_nodes : Numa.Topology.node array;
  vcpu_pin : int array;  (** [vcpu_pin.(v)] is the pCPU running vCPU [v]. *)
  account : account;
  hypercalls : Hypercall.table;  (** Per-hypercall invocation counts. *)
  mutable fault_handler : (Memory.Page.pfn -> cpu:Numa.Topology.cpu -> unit) option;
  mutable policy_name : string;  (** For reports; policies update it. *)
}

val fresh_account : unit -> account

val handle_fault : t -> costs:Costs.t -> pfn:Memory.Page.pfn -> cpu:Numa.Topology.cpu -> bool
(** Deliver a hypervisor page fault for [pfn]: charges the fault cost
    and runs the installed handler.  Returns [true] if a handler mapped
    the page (the P2M entry is valid afterwards), [false] if no handler
    is installed or the entry is still invalid. *)

val reset_account : t -> unit
