(** Consolidated-workload experiments: Figures 8 and 9.

    Two domU virtual machines run two applications simultaneously,
    each with its best Xen+ NUMA policy (Table 4), compared against the
    round-1G default:

    - Figure 8: 24 vCPUs each, pinned to disjoint halves of the NUMA
      nodes; each configuration runs twice with the halves swapped and
      the completion times averaged (placement-sensitivity control);
    - Figure 9: 48 vCPUs each, every pCPU running one vCPU of each VM
      (consolidation). *)

type pair_result = {
  app_a : string;
  app_b : string;
  improvement_a : float;  (** T_baseline / T_best for VM A. *)
  improvement_b : float;
}

val fig8 : ?seed:int -> unit -> pair_result list
val print_fig8 : ?seed:int -> unit -> unit

val fig9 : ?seed:int -> unit -> pair_result list
val print_fig9 : ?seed:int -> unit -> unit
