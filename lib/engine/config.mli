(** Run configurations for the simulator.

    A run places one or more applications, each in its own execution
    container, on the AMD48 model:

    - [Linux]: the application runs natively; the NUMA policy is
      Linux's (placement at the process page table level, no
      virtualization costs, native I/O and IPIs);
    - [Xen]: a domU with Xen's stock configuration — para-virtualized
      I/O, virtualized IPIs;
    - [Xen_plus]: the paper's improved baseline — PCI
      passthrough/IOMMU I/O (disabled when the first-touch policy is
      active: the IOMMU cannot tolerate invalid P2M entries) and,
      where requested, MCS spin locks instead of futex sleeps. *)

type mode = Linux | Xen | Xen_plus

type vm_spec = {
  app : Workloads.App.t;
  threads : int;  (** Threads = vCPUs; pinned 1:1. *)
  policy : Policies.Spec.t;
  home_nodes : Numa.Topology.node array option;
      (** Force the VM onto specific nodes (consolidation setups). *)
  use_mcs : bool;
      (** Replace pthread mutex/condvar by MCS spin loops (the Xen+
          modification for facesim and streamcluster, also applied to
          their Linux runs for fairness). *)
  huge_pages : bool;
      (** Back the application with 2 MiB pages (the paper's first
          future-work item): TLB reach grows 512-fold, which matters
          most under nested paging.  This is the {e guest}-side flag —
          the whole footprint is assumed huge-mapped, independent of
          the hypervisor P2M. *)
  superpages : bool;
      (** Enable 2 MiB {e hypervisor} P2M superpage entries
          ({!Xen.P2m}): round-1G boot placement installs them, per-page
          operations splinter them, and the manager's promotion scan
          re-coalesces extents.  The TLB benefit then tracks the live
          superpage fraction of guest memory instead of being a static
          assumption.  Ignored in [Linux] mode (no P2M). *)
  pt_walk : bool;
      (** Enable the radix page-walk cost model ([--pt-walk]): TLB
          misses charge walk-depth levels, each priced by the latency
          of the node holding that page-table level ({!Xen.Pt}),
          instead of the flat walk constant.  Off (the default), walk
          costs are bit-identical to the flat model. *)
  replicate_pt : bool;
      (** Mirror the page tables onto every home node
          ([--replicate-pt], the Mitosis policy): walks resolve from
          the local mirror, every P2M update pays the per-mirror
          write-propagation cost.  A mirror is modelled by its count
          ({!Xen.Pt}), not as a copy of the tables.  Ignored in
          [Linux] mode (no P2M). *)
  pinned : bool;
      (** [true] (the paper's evaluation setting): vCPUs stay on their
          boot pCPUs.  [false]: the credit scheduler may migrate them
          to idle pCPUs — the load-balancing freedom the paper's
          introduction argues for. *)
}

val vm : ?home_nodes:Numa.Topology.node array -> ?use_mcs:bool -> ?huge_pages:bool ->
  ?superpages:bool -> ?pt_walk:bool -> ?replicate_pt:bool -> ?pinned:bool -> ?threads:int ->
  policy:Policies.Spec.t -> Workloads.App.t -> vm_spec
(** [threads] defaults to 48 (the full machine). *)

val epoch_len : float
(** Simulated epoch length, seconds (0.1).  Every run steps by it; the
    Manager's once-per-second Carrefour period
    ({!Policies.Manager.carrefour_due}, every 10 epochs) and the
    {!Advisor} profiling window assume it. *)

type t = {
  mode : mode;
  vms : vm_spec list;
  seed : int;
  max_epochs : int;
  carrefour_config : Policies.Carrefour.User_component.config option;
      (** Override the Carrefour user-component tuning (used by the
          heuristic ablations); [None] = engine default. *)
  machine : Numa.Machine_desc.t;
      (** Physical host to simulate (default: the paper's AMD48). *)
  faults : Faults.Plan.t;
      (** Fault-injection plan (default empty = no faults).  The runner
          derives the injector's stream from [seed], so a fault run is
          as reproducible as a clean one. *)
  observer : observer option;
      (** Called at the end of every epoch with live telemetry
          (progress tracking, CSV traces, convergence plots). *)
  slo : (string * float) list;
      (** Latency SLO objectives [(metric, target cycles)] evaluated
          per domain every epoch and at end of run ([--slo]).  Metrics:
          [mean] (work-weighted epoch mean) or [p50]/[p95]/[p99]/[p999]
          over per-vCPU epoch latencies.  Purely observational — the
          accounting never feeds back into the simulation, so a run
          with SLOs is bit-identical to one without. *)
  fast_forward : bool;
      (** Allow the runner's steady-state fast-forward: quiescent
          epochs replay the previous epoch's captured float deltas by
          identical additions in identical order instead of re-running
          the O(threads×nodes) kernels, so results and traces stay
          bit-identical to the naive loop (the escape hatch is
          [--no-fast-forward]).  The only whole-run switch: an epoch
          in which a fault fires or a vCPU moves runs in full.
          [make] defaults the field to the process-wide default
          ({!set_default_fast_forward}). *)
}

and observer = epoch_snapshot -> unit

and epoch_snapshot = {
  epoch_index : int;
  time : float;  (** Simulated seconds since the run started. *)
  imbalance : float;  (** Cumulative per-node access imbalance. *)
  max_controller_util : float;  (** This epoch. *)
  max_link_util : float;
  progress : (string * float) list;
      (** Per application: fraction of the total work completed. *)
  local_fraction : (string * float) list;
      (** Per application: cumulative local-access share. *)
}

val make : ?seed:int -> ?max_epochs:int ->
  ?carrefour_config:Policies.Carrefour.User_component.config ->
  ?machine:Numa.Machine_desc.t ->
  ?faults:Faults.Plan.t ->
  ?observer:observer ->
  ?slo:(string * float) list ->
  ?fast_forward:bool ->
  mode:mode -> vm_spec list -> t
(** @raise Invalid_argument on an ill-formed fault plan, an unknown
    SLO metric or non-positive target. *)

val set_default_fast_forward : bool -> unit
(** Process-wide default for {!t.fast_forward} (initially [true]),
    mirroring {!Pool.set_default_jobs}: the bench harness flips it so
    [--no-fast-forward] reaches every run the experiment grids spawn
    without threading a flag through them. *)

val parse_slo : string -> ((string * float) list, string) result
(** Parse a ["METRIC=TARGET,..."] objective list (the [--slo] CLI
    argument); the error enumerates the valid metrics. *)

val mode_name : mode -> string

val label : t -> string
(** The run's canonical identity, e.g.
    ["xen+|amd48|seed=42|max_epochs=40000|faults=none|carrefour=default|cg.C/first-touch/t48/unpinned,ep.D/round-4k/t24"]:
    mode, machine, seed, epoch cap, fault plan, Carrefour tuning
    ([default], or every field with exact float text), then per VM
    the application, policy, thread count and the home nodes and
    flags that are set ([unpinned], [mcs], [hp], [sp], [ptw],
    [rep]).  Two configurations that can emit different events get
    different labels; [fast_forward], [slo] and [observer] change no
    event and are left out.  It names the run's trace stream
    ({!Obs.Trace.stream}) and its epoch-cap failure. *)

val page_scale : t -> int
(** Frames-per-simulated-page factor: picked from the largest footprint
    so regions stay in the tens of thousands of pages. *)
