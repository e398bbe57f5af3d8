(** The Carrefour dynamic policy, ported into the hypervisor
    (Sections 3.4 and 4.3).

    Carrefour monitors memory access patterns through hardware
    counters and migrates the hottest physical pages.  Two heuristics
    are enabled by default, as in the paper:

    - {e interleave}: when memory controllers are overloaded, randomly
      migrate hot pages from overloaded nodes to underloaded nodes;
    - {e migration}: when the interconnect saturates, migrate hot pages
      that are remotely accessed by a single node to that node.

    The replication heuristic — replicate hot read-only pages on every
    reader node — is additionally available behind
    {!User_component.config.enable_replication} (default off, matching
    the paper: its effect is marginal and a real in-Xen implementation
    would require radical memory-manager changes; here the replica
    frames live in a side table of the system component).

    The {e system component} runs inside Xen: it aggregates the
    per-vCPU access samples (IBS-style) and exposes metrics; the
    {e user component} runs as a dom0 process: it reads the metrics
    through a hypercall and decides which pages to migrate where; the
    migrations go through the internal interface. *)

type sample = {
  pfn : Memory.Page.pfn;
  node_accesses : float array;
      (** Accesses to this page during the epoch, indexed by the NUMA
          node of the {e accessing} vCPU. *)
  read_fraction : float;
      (** Share of the accesses that were reads (1.0 = read-only),
          from the IBS load/store bit.  Only the replication heuristic
          consumes it. *)
}

(** Flat hot-page readout: row [i] of [counts] — the [nodes] cells
    starting at [i * nodes] — is the per-node access spread of
    [pfns.(i)].  A few arrays per readout instead of one boxed
    {!sample} per page, so the per-period metrics hypercall stays cheap
    at thousands of tracked pages.  Rows come in heat-table order (see
    {!System_component.read_metrics}), which decay reshuffles, so
    {!User_component.decide} does not depend on it: on a readout with
    distinct pfns it gives the same actions and leaves its [rng] in the
    same state for any permutation of the rows. *)
type hot = {
  nodes : int;
  count : int;
  pfns : int array;
  counts : float array;  (** [count * nodes], row-major. *)
  sums : float array;
      (** Per-row sum of [counts], accumulated in ascending node order
          — bit-equal to [Array.fold_left ( +. ) 0.0] over the row. *)
  best : int array;
      (** Per-row index of the first largest count: the page's dominant
          accessor node. *)
  node : int array;
      (** Per-row node backing the page, [-1] when it is unmapped.  The
          heat table keeps it current from the P2M update stream (see
          {!System_component.on_p2m_update}). *)
  reads : float array;
      (** Read-weighted heat per row: [reads.(i) /. keys.(i)] is the
          row's read fraction (1.0 when the key is 0). *)
  keys : float array;
      (** Ranking key per row — the heat table's accumulated total.
          Rows need not arrive sorted: {!User_component.decide} ranks
          candidate rows by (key descending, pfn ascending) and breaks
          the ties of a duplicated pfn by row index. *)
  scale : float;
      (** Power of two that every value of [counts], [sums], [reads]
          and [keys] carries: the logical value is the stored one
          divided by [scale].  The heat table's readout keeps its decay
          scale (see {!System_component.begin_epoch}); {!hot_of_samples}
          has [1.0].  {!User_component.decide} applies it exactly: its
          threshold tests give the unscaled answers bit for bit. *)
}

val hot_of_samples : node_of:(Memory.Page.pfn -> int) -> sample list -> hot
(** Pack a sample list (in order) into the flat readout form — the
    convenience path for tests and synthetic metrics; rows are padded
    to the widest spread in the list and keyed by their row sums;
    [reads] is [read_fraction *. key], as the heat table stores a
    freshly sampled page; [node] is [node_of] of each row's pfn. *)

type workspace
(** Reusable ranking workspace for {!User_component.decide}: its
    candidate buffer and its hot-page-cap row buffer grow to the widest
    readout seen and are reused, so a period allocates no per-row
    arrays.  Each system component owns one. *)

val workspace : unit -> workspace

module System_component : sig
  type t

  val create : Xen.System.t -> Xen.Domain.t -> t

  val begin_epoch : t -> unit
  (** Open a sampling epoch: page heat decays by half so stale hotness
      fades, and pages whose heat falls below 1.0 leave the table.  Call
      once per epoch, before the epoch's {!record_sample}s.

      The table stores every value times a power of two and decays by
      raising the power, so a period costs a test per row, not a pass
      over every count.  The values it hands out are bit-identical to
      halving every count eagerly, subnormals included.  Profiled as
      [carrefour.decay]. *)

  val record_sample :
    t -> pfn:Memory.Page.pfn -> node_accesses:float array -> read_fraction:float -> unit
  (** Feed one hardware sample into the heat table.  [node_accesses]
      is copied on first sight of the page and accumulated in place
      afterwards, so callers may reuse one scratch array across
      samples.  A new row takes its page's node from the P2M. *)

  val on_p2m_update : t -> Xen.P2m.update -> unit
  (** Keep the rows' [node] column current: feed it every update of the
      domain's P2M stream (the Manager's observer does).  [Set] and
      [Cleared] update one row, [Superpage_mapped] every row in the
      extent; [Splintered] and [Promoted] move no frame. *)

  val iter_nodes : t -> (Memory.Page.pfn -> int -> unit) -> unit
  (** [f pfn node] over the live rows and their cached nodes, for the
      run-end audit ({!Manager.audit}). *)

  type metrics = {
    controller_util : float array;
    max_link_util : float;
    imbalance : float;
    hot_pages : hot;
        (** The whole table, in table order (an arbitrary permutation
            that decay reshuffles) and with the table's scale. *)
  }

  val read_metrics : t -> counters:Numa.Counters.t -> metrics
  (** What the user component's hypercall returns: utilisations from
      the hardware monitors plus the accumulated hot-page table,
      unranked.  [hot_pages] aliases the live table: its arrays may be
      longer than [count], and it is valid only until the next
      {!begin_epoch} or {!record_sample}.  Allocates nothing per row. *)

  val node_of : t -> Memory.Page.pfn -> int
  (** The node backing the page, or [-1] if it is unmapped or beyond
      the P2M: a P2M lookup, made when a row is inserted. *)

  val replicate : t -> pfn:Memory.Page.pfn -> bool
  (** Replicate the page: a copy is allocated on every other node and
      recorded in the replica table (the machine frames are really
      held); reads can then be served locally everywhere.  [false] if
      unmapped, already replicated, or out of memory. *)

  val collapse : t -> pfn:Memory.Page.pfn -> unit
  (** Drop the replicas of a page (a write invalidates them). *)

  val is_replicated : t -> Memory.Page.pfn -> bool

  val tracked_pages : t -> int
end

module User_component : sig
  type config = {
    mc_threshold : float;  (** Controller utilisation triggering interleave. *)
    ic_threshold : float;  (** Link utilisation triggering migration. *)
    dominant_fraction : float;
        (** Share of accesses from one node that makes a page a
            locality-migration candidate. *)
    min_accesses : float;  (** Heat below which a page is ignored. *)
    migration_budget : int;  (** Max migrations per epoch. *)
    max_hot_pages : int;
        (** Hot-page cap: {!decide} acts only on the [max_hot_pages]
            hottest rows of a larger readout. *)
    enable_replication : bool;  (** Off by default (discarded in the paper). *)
    replication_read_threshold : float;
        (** Minimum read fraction for a replication candidate. *)
    min_reader_nodes : int;
        (** Minimum distinct reader nodes for replication to pay. *)
  }

  val default_config : config

  type reason = Interleave | Locality | Replicate

  type action = {
    pfn : Memory.Page.pfn;
    dest : Numa.Topology.node;  (** Meaningless for [Replicate]. *)
    reason : reason;
  }

  val decide :
    ?node_ok:(Numa.Topology.node -> bool) ->
    config ->
    workspace:workspace ->
    rng:Sim.Rng.t ->
    metrics:System_component.metrics ->
    action list
  (** Pure decision logic (testable in isolation): interleave actions
      when controllers are overloaded, locality actions when the
      interconnect saturates, hottest pages first, capped by the
      budget.  A readout of more than [max_hot_pages] rows contributes
      only its [max_hot_pages] best-ranked rows (the rank order below):
      the decision is that on the readout ranked and cut to the cap.
      A page's current node is the readout's [node] column.  [node_ok]
      (default: accept all) filters candidate
      destinations — {!run_epoch} passes the topology's dynamic node
      mask so failing nodes are never picked.

      The result, and the state [rng] is left in, are those of ranking
      every candidate and walking the ranking; only the ranking stops
      where the budget does.  Every interleave candidate takes one
      [rng] draw, emitted or not.  [workspace] only holds
      intermediate state; its contents never affect the result.
      Neither does the readout's [scale] (the result is that of the
      unscaled readout) nor, when its pfns are distinct, the order of
      its rows.  Candidates rank by (key descending, pfn ascending, row
      ascending).  Profiled as [carrefour.decide] when {!run_epoch}
      calls it. *)
end

type report = {
  interleave_migrations : int;
  locality_migrations : int;
  replications : int;
  failed : int;
}

val run_epoch :
  interleave_only:bool ->
  migrate:(pfn:Memory.Page.pfn -> node:Numa.Topology.node -> bool) ->
  System_component.t ->
  config:User_component.config ->
  rng:Sim.Rng.t ->
  counters:Numa.Counters.t ->
  report
(** One user-component period: read metrics, decide, apply.

    [interleave_only] sheds the locality and replication actions — the
    circuit breaker's first degradation level.  [migrate] moves one
    page (the Manager's resilient path: retry/defer through the
    internal interface, which charges the cost to the domain's ledger)
    and says whether it moved; a replicated page's replicas are
    collapsed first. *)
