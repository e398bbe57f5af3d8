(** The guest's memory as the engine sees it: where each application
    page lives and how popular it is.

    A VM's footprint is one shared region, whose popularity follows the
    app's Zipf law with a hot front that algorithmic phases rotate, and
    one private region per thread with uniform popularity.  Each region
    caches its pages' nodes and the per-node popularity sums the epoch
    kernels read.

    {b State owned:} the regions (pfns, weights, cached nodes, per-node
    sums, replication bits, rotation), the pfn -> region index, the
    guest's {!Guest.Pfn_pool}, the Carrefour sample scratch (seen
    marks, fed pfns, the shared Zipf sampler, the private-page cursor),
    the current phase, and the count of cached placement moves.

    {b Run state read:} the domain's P2M and the machine (to resolve a
    page's node), and, per call, what {!feed_samples} lists.

    {b Run state written:} at {!create}, the domain's P2M and ledger
    (the faults that touch the regions in); each Carrefour period, the
    heat table {!feed_samples} fills. *)

type region = private {
  pfns : int array;
  weights : float array;  (** popularity by hot rank (rank 0 hottest) *)
  page_node : int array;
  node_weight : float array;  (** per-node popularity sums *)
  replicated : Bytes.t;  (** pages whose read traffic is served locally *)
  mutable replicated_local : float;
      (** popularity mass served on the reader's own node;
          [node_weight] plus [replicated_local] sums to 1 *)
  mutable shift : int;  (** page [(shift + rank) mod pages] holds hot rank [rank] *)
}
(** Read-only outside this module: the epoch kernels read
    [node_weight] and [replicated_local] directly, with no call per
    vCPU. *)

type t

val create : Xen.System.t -> Xen.Domain.t -> Workloads.App.t -> threads:int -> t
(** Build the guest's pfn pool and touch every region page in order
    (the shared region from vCPU 0's pCPU, each private region from its
    thread's), resolving placement through the guest and hypervisor
    page tables; faults it takes are charged to the domain.
    @raise Invalid_argument when the guest runs out of pfns. *)

val shared : t -> region
val privates : t -> region array

val pool : t -> Guest.Pfn_pool.t
(** The guest's pfn allocator, shared with {!Churn}. *)

val migrations : t -> int
(** Cached placement moves seen by {!refresh_placement}: the run's
    Carrefour migration count. *)

val rotate : t -> phase:int -> bool
(** Enter algorithmic phase [phase]: the shared region's hot front
    moves to [phase * (pages / phases) mod pages].  Returns whether the
    phase changed. *)

val feed_samples :
  t -> Policies.Carrefour.System_component.t -> rng:Sim.Rng.t -> src_shared:float array ->
  shared_total:float -> burst_total:float -> thread_accesses:float array ->
  finish:float array -> thread_node:int array -> burst_victim:int -> burst_source:int -> unit
(** Push this period's hot-page samples into the Carrefour heat table:
    the top 32 shared ranks and 96 Zipf draws from [rng] (when the
    shared region saw [shared_total > 0] accesses, spread over source
    nodes as [src_shared]), then 8 private pages of each running thread
    ([finish < 0]), weighted by its [thread_accesses] on its
    [thread_node], plus the burst source's [burst_total] on the burst
    victim's pages.  The fed pfns are kept for {!refresh_placement}. *)

val refresh_placement : t -> Policies.Carrefour.System_component.t option -> unit
(** Re-resolve the pages fed this period (nodes and, given Carrefour,
    replication status) after Carrefour's migrations and replications;
    counts each page whose node changed in {!migrations}.  Profiled as
    [guest.refresh]. *)

val refresh_regions : t -> unit
(** Re-resolve every region page's node through the P2M and
    re-aggregate: while an evacuation drain is in flight placement
    moves wholesale, beyond what the per-sample refresh tracks.
    Profiled as [guest.refresh]. *)

val update_page_node : t -> Memory.Page.pfn -> unit
(** Re-resolve one page's node (an uncorrectable-ECC remap). *)
