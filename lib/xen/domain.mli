(** Xen domains (virtual machines).

    A domain owns a set of vCPUs pinned to physical CPUs, a
    guest-physical address space of [mem_frames] frames behind a
    {!P2m.t}, and the set of home NUMA nodes the domain builder packed
    it onto.  Policies install a [fault_handler] to be called on
    hypervisor page faults (first touch of an invalid P2M entry).

    The domain's {!ledger} holds the time charged to it per {!cost};
    the engine reports a VM's completion time and each of its terms
    from it. *)

type kind = Dom0 | DomU

(** What a charge pays for: hypercalls and their retries, hypervisor
    page faults and the mappings they install, page copies and remaps
    (migrations, splinters, promotions, replication, ECC, backoff),
    replicated page-table writes, disk I/O requests and the analytic
    page-release churn.  [Io] and [Release] are the VM's wall-clock
    time; the others are hypervisor time summed over its vCPUs. *)
type cost = Hypercall | Fault | Migrate | Pt_replica | Io | Release

type ledger
(** The time charged per {!cost} and the page-fault count; only this
    module writes it. *)

type t = {
  id : int;
  name : string;
  kind : kind;
  vcpus : int;
  mem_frames : int;
  p2m : P2m.t;
  home_nodes : Numa.Topology.node array;
  vcpu_pin : int array;  (** [vcpu_pin.(v)] is the pCPU running vCPU [v]. *)
  ledger : ledger;
  mutable fault_handler : (Memory.Page.pfn -> cpu:Numa.Topology.cpu -> unit) option;
  mutable policy_name : string;  (** For reports; policies update it. *)
}

val fresh_ledger : unit -> ledger
(** A ledger with nothing charged. *)

val charge : t -> cost -> float -> unit
(** [charge t cost time] adds [time] seconds to [t]'s [cost] entry. *)

val spent : t -> cost -> float
(** The time charged to [cost] since the last {!reset_ledger}. *)

val faults : t -> int
(** Hypervisor page faults delivered since the last {!reset_ledger}. *)

val reset_ledger : t -> unit
(** Zero every entry and the fault count. *)

val virt_overhead : t -> page_scale:int -> threads:int -> float
(** The hypervisor time per vCPU:
    [(fault × page_scale + hypercall + migrate + pt_replica) / threads],
    the faults scaled because one simulated page stands for
    [page_scale] real 4 KiB pages. *)

val completion : t -> compute_time:float -> page_scale:int -> threads:int -> float
(** [compute_time + io + virt_overhead + release], summed in that
    order. *)

val handle_fault : t -> costs:Costs.t -> pfn:Memory.Page.pfn -> cpu:Numa.Topology.cpu -> bool
(** Deliver a hypervisor page fault for [pfn]: charges the fault cost
    and runs the installed handler.  Returns [true] if a handler mapped
    the page (the P2M entry is valid afterwards), [false] if no handler
    is installed or the entry is still invalid. *)
