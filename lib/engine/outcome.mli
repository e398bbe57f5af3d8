(** What a run reports for each VM: the latency ledger the epochs fill,
    and the per-VM result and metrics assembled from it at the end.

    {b State owned:} the latency sums (weighted latency, total and
    local accesses), the latency histogram, the SLO violation counts
    and the count of epochs in which any vCPU ran.

    {b Run state read:} the VM's spec, its domain's ledger and P2M
    counters and its manager (degradation, page tables), captured at
    {!create}; and, per call, what {!reduce_latency} and {!vm_result}
    list. *)

type t

val create :
  Config.t -> Config.vm_spec -> domain:Xen.Domain.t -> manager:Policies.Manager.t -> t

val reduce_latency : t -> thread_node:int array -> Slots.t -> unit
(** Fold one epoch's per-vCPU slots into the ledger, in vCPU order:
    each vCPU with [total.(v) > 0] adds [total * lat] to the weighted
    latency, its accesses and the local ones (row [v] of [dst] at
    [thread_node.(v)]) to the sums, and one latency-histogram sample;
    then the epoch's SLO verdicts.  Runs on the live slots of a full
    epoch and on the captured slots of a replayed one, so both leave
    the same bits. *)

val local_fraction : t -> float
(** Local accesses over all accesses so far, 0.0 before any. *)

val vm_result :
  t -> Config.t -> Xen.System.t -> Churn.t -> finish:float array -> sync_overhead:float ->
  migrations:int -> walk_cpi:float -> Result.vm_result
(** The VM's result.  Charges the I/O path's per-request overhead and
    the analytic release churn ({!Churn.overhead}) to the domain's
    ledger, so call it once per run; then reads [completion] and each
    of its terms from the ledger ({!Xen.Domain.completion}), with
    [compute_time] the last vCPU's [finish]. *)

val commit_metrics : Result.t -> t list -> unit
(** Mirror a finished run into the metrics registry ([engine.*]); [t]s
    in the result's VM order.  A no-op while metrics are disabled. *)
