(** The epoch simulator: boot, then the epoch pipeline.

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
    path overhead and the page-release churn.

    This module holds the pipeline (boot, the epoch inputs, the
    kernels and reductions, the fast-forward's replay decision, replay
    and arming, the observer) and each VM's per-vCPU work, placement,
    slots and traffic.  Every other job owns its state in its own
    module, which the pipeline calls once per VM and epoch, never
    inside a per-vCPU loop:
    - {!Guest_model}: the regions, their placement cache and rotation,
      and the Carrefour sample feed; reads the P2M, fills the heat
      table;
    - {!Churn}: page-release churn and the engine's one fault-plan
      fork (the concrete pv queue, the guest's free-list report);
      allocates through the guest's pfn pool, faults pages in;
    - {!Outcome}: the latency ledger each epoch's slots feed, and the
      per-VM results and metrics of a finished run;
    - {!Ras}: node failures and bandwidth loss; writes the topology
      mask, the machine's node pools and the managers' evacuations;
    - {!Slots}: the per-vCPU slots the kernels write and the
      fast-forward captures;
    - {!Cost_model}: the pure cost formulas (sync overhead, page
      walks, I/O path). *)

val run : Config.t -> Result.t
(** Simulate the configuration to completion (or [max_epochs]).

    [run] boots the machine and the VMs, then drives one epoch at a
    time: the epoch's inputs (trace stamps, RAS and ECC events, pass A,
    the scheduler, vCPU stalls), then a full epoch or a replayed one,
    then the observer; at the end it audits every VM
    ({!Policies.Manager.audit}) and assembles the result.

    Steady state is fast-forwarded by default
    ({!Config.t.fast_forward}).  Whether an epoch is replayed is decided
    once, at that epoch: every running VM armed itself at the end of a
    full epoch (no P2M mutation, no phase rotation or burst, no thread
    started or finished, I/O drained, manager quiescent, latency
    feedback bitwise converged), this epoch moved no vCPU, fired no
    fault the kernels read (a stall, an ECC remap, a node failing,
    recovering or losing bandwidth) and rotated no hot front, no
    running VM's manager has periodic work due at it
    ({!Policies.Manager.boundary_due}), and {!replay_guard} passes.  A
    replayed epoch skips the O(threads×nodes) kernels and runs the full
    epoch's own end-of-epoch stages (work retirement, disk DMA, counter
    commit, latency reduction with its SLO verdicts, manager tick) over
    the captured per-vCPU slots.  Results and traces are bit-identical
    to the naive loop; only {!Result.t.replayed_epochs} tells the
    difference.

    @raise Invalid_argument when the run-end audit finds an offlined
    machine frame still mapped, or a Carrefour heat row whose cached
    node is not its page's node. *)

val replay_guard :
  finish:float array -> doit:float array -> remaining:float array ->
  cap:float array -> final:float array -> bool
(** The fast-forward's per-epoch safety predicate over the frozen
    capture arrays: for every still-running thread that did work in
    the armed epoch, [remaining.(t) >= cap.(t)] (so the kernel's
    [Float.min remaining cap] stays bitwise equal to [cap]) and
    [remaining.(t) -. final.(t) > 0.0] (so no thread would have
    finished).  Finished threads ([finish.(t) >= 0]) and idle ones
    ([doit.(t) = 0]) are ignored.  Pure; exposed for the unit tests
    ([engine.ff] "replay guard cuts"). *)

val replay_stage : Config.t -> unit -> unit
(** [replay_stage cfg] boots [cfg], steps it until every running VM
    has armed the fast-forward, and returns the runner's own replay
    stage over that state: each call replays one epoch from the
    capture (work retirement, disk DMA, counter commit, latency
    reduction, manager tick) without advancing the clock.  Exposed for
    the [engine.ff] tests, which pin its minor words per call.  Raises
    [Invalid_argument] if the run ends before it arms. *)
