(** The hypercall surface the paper adds to Xen.

    Three guest-visible entry points exist in this reproduction, in the
    arch-private hypercall number range (Xen reserves 48+ for
    architecture extensions):

    - [Set_numa_policy] (48): select the VM's NUMA policy and/or toggle
      Carrefour (Section 4.2.1);
    - [Page_ops] (49): deliver one batched queue of page
      allocation/release events (Sections 4.2.3–4.2.4);
    - [Carrefour_read_metrics] (50): the dom0 user component reads the
      system component's metrics and hot-page table (Section 4.3).

    Each invocation is visible in the trace and the metrics registry —
    the visibility a hypervisor developer needs when the guest starts
    hammering the page-ops path; the time it costs is charged to the
    domain's {!Domain.ledger} by the caller. *)

type id =
  | Set_numa_policy
  | Page_ops
  | Carrefour_read_metrics

val nr : id -> int
(** The hypercall number, carried by the [Hypercall_entry] event. *)

val record : ?obs:Obs.Stream.t -> ?domain:int -> id -> time:float -> unit
(** Report one invocation that spent [time] seconds in the hypervisor.
    With [obs] set, emits a [Hypercall_entry] event (arg = hypercall
    number) and a matching [Hypercall_exit] (arg = in-hypervisor time
    in nanoseconds); with metrics collection on, bumps per-hypercall
    call counters and a latency histogram. *)
