(** Results of a simulated run. *)

type degradation = {
  migrate_retries : int;  (** Migration retries after transient ENOMEM. *)
  deferred : int;  (** Migrations pushed to the retry queue. *)
  drained : int;  (** Deferred migrations later completed. *)
  fallback_maps : int;  (** Mappings placed off the wanted node. *)
  breaker_trips : int;  (** Circuit-breaker openings. *)
  breaker_level : int;  (** Final level: 0 full, 1 interleave-only, 2 static. *)
  lost_batches : int;  (** Page-ops batches lost in transit. *)
  reconciled : int;  (** Stale P2M entries healed by reconciliation. *)
  backoff_time : float;  (** Simulated seconds spent backing off. *)
  ecc_ce : int;  (** Correctable ECC errors scrubbed. *)
  ecc_ue : int;  (** Uncorrectable ECC errors handled. *)
  offlined : int;  (** Machine frames retired by the UE handler. *)
  evacuated : int;  (** Frames moved off failing nodes. *)
  evac_epochs : int;  (** Epochs a node evacuation was in progress. *)
}

val no_degradation : degradation

(** Tail of the per-domain latency distribution: percentiles over the
    run's log-bucket histogram of per-vCPU-per-epoch mean memory
    latencies.  Samples are recorded in the runner's sequential
    reduction, so the summary is bit-identical across [--jobs]. *)
type latency_summary = {
  samples : int;  (** running-vCPU epoch samples (0 = no work ran) *)
  lat_mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  lat_max : float;
}

val no_latency : latency_summary

(** One [--slo CLASS=TARGET] objective evaluated for one domain. *)
type slo_row = {
  metric : string;  (** [mean], [p50], [p95], [p99] or [p999] *)
  target : float;  (** latency budget, cycles *)
  value : float;  (** end-of-run value of the metric *)
  violation_epochs : int;
      (** epochs whose own value of the metric exceeded the target *)
  active_epochs : int;  (** epochs in which the domain ran work *)
  burn_rate : float;  (** [violation_epochs / active_epochs] *)
  violated : bool;  (** end-of-run value exceeds the target *)
}

type vm_result = {
  app_name : string;
  policy : string;
  completion : float;  (** Seconds from start to the last thread's finish,
                           including virtualization and I/O overheads. *)
  compute_time : float;    (** Epoch-loop part of [completion]. *)
  io_overhead : float;     (** Serial per-request I/O path overhead. *)
  sync_overhead : float;   (** Blocked-wakeup time, summed over threads. *)
  virt_overhead : float;   (** Hypercalls, faults, migrations (thread share). *)
  release_overhead : float;  (** Page-release hypercall churn (first-touch). *)
  faults : int;
  migrations : int;        (** Pages migrated by Carrefour. *)
  avg_latency_cycles : float;  (** Work-weighted mean memory latency. *)
  local_fraction : float;  (** Fraction of accesses served on the local node. *)
  superpages : int;  (** Live 2 MiB P2M superpage entries at the end. *)
  superpage_fraction : float;
      (** Share of mapped guest memory covered by superpage entries
          (drives the TLB reach of the run's tail). *)
  splinters : int;  (** Superpage demotions over the whole run. *)
  promotes : int;  (** Extents re-coalesced by the promotion scan. *)
  superpage_migrates : int;
      (** Promotions that had to copy the extent onto a fresh
          contiguous block first. *)
  walk_cycles_per_instr : float;
      (** End-of-run TLB walk term of the CPI (the flat constant model
          when [--pt-walk] is off, the radix per-level pricing when
          on). *)
  pt_replica_updates : int;
      (** Per-mirror page-table entry writes under [--replicate-pt]
          (0 without replication). *)
  pt_replica_invalidations : int;
      (** Per-mirror shootdowns (clears and splinters) under
          [--replicate-pt]. *)
  pt_replica_time : float;
      (** Simulated seconds spent propagating P2M updates into the
          mirrors. *)
  latency : latency_summary;
      (** Tail-latency percentiles of the per-vCPU-per-epoch samples. *)
  slo : slo_row list;
      (** One row per [--slo] objective, in spec order ([] when the
          config declared none). *)
  degradation : degradation;
      (** Graceful-degradation counters ({!no_degradation} on a clean
          run). *)
}

type t = {
  vms : vm_result list;
  imbalance : float;          (** Table-1 imbalance over the whole run. *)
  interconnect_load : float;  (** Table-1 interconnect metric. *)
  epochs : int;
  replayed_epochs : int;
      (** Epochs served by the steady-state fast-forward's delta
          replay instead of the full kernels (0 with
          [--no-fast-forward], or when the run never reached a
          quiescent steady state between faults that fired).  Purely an
          accounting of {e how} epochs were computed: every other
          field is bit-identical whatever this value. *)
  faults_injected : int;  (** Total faults the injector fired (0 = clean). *)
}

val completion : t -> string -> float
(** Completion time of the VM running the named app.
    @raise Not_found if absent. *)

val single : t -> vm_result
(** The only VM of a single-app run.
    @raise Invalid_argument when the run had several VMs. *)

val pp : Format.formatter -> t -> unit
