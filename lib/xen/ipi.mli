(** Inter-processor interrupt cost model (Figure 5).

    Sending an IPI costs 0.9 µs in native mode and 10.9 µs in guest
    mode: every stage of the path (the APIC write, routing, delivery
    and the handler's EOI) traps into the hypervisor under
    virtualization.  Applications that intentionally leave the CPU
    (locks, condition variables, network waits) pay one guest IPI per
    wake-up, which is the overhead Xen+ removes for facesim and
    streamcluster by spinning instead of sleeping. *)

type mode = Native | Guest

type stage = {
  label : string;
  native : float;  (** Seconds spent in this stage, native mode. *)
  guest : float;   (** Seconds spent in this stage, guest mode. *)
}

val stages : stage list
(** The IPI path decomposition; sums to {!total}[ Native] and
    {!total}[ Guest]. *)

val total : mode -> float
