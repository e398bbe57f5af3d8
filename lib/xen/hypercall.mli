(** The hypercall surface the paper adds to Xen, with per-domain
    accounting.

    Three guest-visible entry points exist in this reproduction, in the
    arch-private hypercall number range (Xen reserves 48+ for
    architecture extensions):

    - [Set_numa_policy] (48): select the VM's NUMA policy and/or toggle
      Carrefour (Section 4.2.1);
    - [Page_ops] (49): deliver one batched queue of page
      allocation/release events (Sections 4.2.3–4.2.4);
    - [Carrefour_read_metrics] (50): the dom0 user component reads the
      system component's metrics and hot-page table (Section 4.3).

    The table records how often and for how long each was invoked —
    the visibility a hypervisor developer needs when the guest starts
    hammering the page-ops path. *)

type id =
  | Set_numa_policy
  | Page_ops
  | Carrefour_read_metrics

val all : id list

val nr : id -> int
(** The hypercall number. *)

val name : id -> string

type stats = {
  mutable calls : int;
  mutable time : float;  (** Seconds spent inside the hypervisor. *)
}

type table

val create_table : unit -> table

val record : ?obs:Obs.Stream.t -> ?domain:int -> table -> id -> time:float -> unit
(** Account one invocation.  With [obs] set, also emits a
    [Hypercall_entry] event (arg = hypercall number) and a matching
    [Hypercall_exit] (arg = in-hypervisor time in nanoseconds); with
    metrics collection on, bumps per-hypercall call counters and a
    latency histogram. *)

val stats : table -> id -> stats
(** Live view; mutating it is visible in the table. *)

val total_calls : table -> int
