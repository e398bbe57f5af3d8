(** Hardware-counter model: per-node access counters and per-link
    bandwidth monitors.

    This is the substrate the Carrefour system component reads, and the
    source of the paper's Table 1 metrics:

    - {b imbalance}: the relative standard deviation around the average
      number of accesses per node;
    - {b interconnect load}: the average, over measurement epochs, of
      the percentage of bandwidth used on the most loaded link during
      each epoch — reported within the hardware's 50–80 % raw amplitude
      (footnote 3 of the paper) and normalised back to 0–100 %.

    All counts are [float] so that scaled workloads (page_scale > 1) can
    record fractional weights. *)

type t

val create : Topology.t -> t

val record_accesses :
  t -> src:Topology.node -> dst:Topology.node -> count:float -> bytes_per_access:float -> unit
(** Record [count] accesses of [bytes_per_access] bytes each from a CPU
    of node [src] to the memory bank of node [dst]; charges the
    destination node counter and every link on the route. *)

val node_accesses : t -> float array
(** Cumulative access counts per destination node. *)

val local_accesses : t -> float
val remote_accesses : t -> float

val link_bytes : t -> float array
(** Cumulative bytes per directed link (indexed by [link_id]). *)

val imbalance : t -> float
(** Relative standard deviation of per-node access counts, as a
    fraction (1.35 = the paper's "135%"). *)

val end_epoch : t -> duration:float -> unit
(** Close the current measurement epoch of [duration] seconds: computes
    link and controller utilisation for the epoch, pushes them to the
    history, and resets the per-epoch byte counters (cumulative access
    totals are preserved). *)

val epoch_count : t -> int

val last_controller_utilisation : t -> float array
(** Per-node memory-controller utilisation (0–1) measured over the last
    closed epoch; zeros before the first [end_epoch]. *)

val last_link_utilisation : t -> float array
(** Per-link utilisation (0–1) over the last closed epoch. *)

val max_route_saturation : t -> src:Topology.node -> dst:Topology.node -> float
(** Max of the destination controller utilisation and the utilisation
    of every link on the route, from the last closed epoch.  This is
    the [saturation] input of {!Latency.mem_cycles}. *)

val raw_link_reading : utilisation:float -> float
(** The hardware's raw link metric: idles at 0.50 and saturates at
    0.80 (piggy-backed synchronisation commands occupy half the
    bandwidth when idle; exclusive locking caps the useful share). *)

val normalise_link_reading : raw:float -> float
(** Inverse of {!raw_link_reading}: maps the 0.50–0.80 raw amplitude
    back to a 0–1 load fraction, clamping out-of-range readings. *)

val interconnect_load : t -> float
(** Average over closed epochs of the most-loaded-link utilisation,
    round-tripped through the raw 50–80 % amplitude as the paper
    reports it.  0 when no epoch has been closed. *)

val reset : t -> unit
(** Forget everything (counters, histories, epochs). *)
