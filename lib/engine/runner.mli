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

    [run] boots the machine and the VMs, then drives one epoch at a
    time: the epoch's inputs (trace stamps, RAS and ECC events, pass A,
    the credit scheduler), then either a full epoch or a replayed one,
    then the observer; at the end it assembles the result.

    Steady state is fast-forwarded by default
    ({!Config.t.fast_forward}): when an epoch's inputs provably
    reached a fixed point — no P2M mutation, no phase rotation or
    burst, no thread started or finished, no vCPU moved, I/O drained,
    manager quiescent, latency feedback bitwise converged, no
    Carrefour/promotion/reconcile/fault boundary due — the epoch skips
    the O(threads×nodes) kernels and runs the full epoch's own
    end-of-epoch stages (work retirement, disk DMA, counter commit,
    latency reduction with its SLO verdicts, manager tick) over the
    captured per-vCPU slots.  Results and traces are bit-identical to
    the naive loop; only {!Result.t.replayed_epochs} tells the
    difference. *)

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

val skip_horizon :
  epoch:int -> max_epochs:int -> boundary_due:bool -> next_armed:int option ->
  finish:float array -> remaining:float array -> cap:float array -> final:float array -> int
(** The fast-forward's skip horizon for one VM's threads, armed at the
    end of [epoch]: replay may serve epochs strictly below it.  It is
    [max_epochs], cut to the next multiple of 10 when [boundary_due]
    (periodic Carrefour, promotion or reconcile work), to [next_armed]
    (the next epoch with a fault window armed), and, for every thread
    still running ([finish.(t) < 0]) that retired work ([final.(t) >
    0]), to [epoch + 1 + (remaining.(t) - cap.(t)) / final.(t)],
    clamped to \[0, 1e9\].  The runner takes the minimum over its VMs.
    Pure. *)

val replay_stage : Config.t -> unit -> unit
(** [replay_stage cfg] boots [cfg], runs it until the fast-forward
    has armed, and returns the runner's own replay stage over that
    state: each call replays one epoch from the capture (work
    retirement, disk DMA, counter commit, latency reduction, manager
    tick) without advancing the clock.  Exposed for the micro
    benchmark.  Raises [Invalid_argument] if the run ends before it
    arms. *)
