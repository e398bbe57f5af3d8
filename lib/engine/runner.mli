(** The epoch simulator.

    Advances simulated time in fixed epochs.  Per epoch, each running
    thread executes as many instructions as its CPU share and current
    average memory latency allow; its memory accesses are distributed
    over the application's pages according to its access pattern,
    resolved through the guest page table and the hypervisor page
    table to NUMA nodes, and charged to the memory controllers and
    interconnect links.  Contention measured in one epoch feeds the
    latency of the next (one-epoch lag fixed point).  Carrefour, when
    active, receives per-epoch hot-page samples and migrates pages
    through the internal interface.  Completion time folds in the
    virtualization costs (hypercalls, faults, migrations), the I/O
    path overhead and the page-release churn. *)

val run : Config.t -> Result.t
(** Simulate the configuration to completion (or [max_epochs]).

    Steady state is fast-forwarded by default
    ({!Config.t.fast_forward}): when an epoch's inputs provably
    reached a fixed point — no P2M mutation, no phase rotation or
    burst, no thread started or finished, no vCPU moved, I/O drained,
    manager quiescent, latency feedback bitwise converged, no
    Carrefour/promotion/reconcile/fault boundary due — the runner replays the armed epoch's captured float deltas
    by identical additions in identical order instead of re-running
    the O(threads×nodes) kernels.  Results and traces are
    bit-identical to the naive loop; only
    {!Result.t.replayed_epochs} tells the difference. *)

val access_bytes : float
(** Bytes charged per memory access (one cache line). *)

val replay_guard :
  finish:float array -> doit:float array -> remaining:float array ->
  cap:float array -> final:float array -> bool
(** The fast-forward's per-epoch safety predicate over the frozen
    capture arrays: for every still-running thread that did work in
    the armed epoch, [remaining.(t) >= cap.(t)] (so the kernel's
    [Float.min remaining cap] stays bitwise equal to [cap]) and
    [remaining.(t) -. final.(t) > 0.0] (so no thread would have
    finished).  Pure; exposed for the micro benchmark. *)
