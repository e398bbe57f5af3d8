(** Wall-clock phase profiler for the runner's hot paths.

    Fixed phase taxonomy, one atomic (ns, calls) pair per phase shared
    by every Pool worker.  Disabled cost is a single atomic read in
    {!span}; results flow into the metrics registry only (never into
    traces), so trace byte-equality across worker schedules is
    untouched. *)

type phase =
  | Kernel_compute  (** per-vCPU epoch compute kernel *)
  | Kernel_throughput  (** per-vCPU throughput/traffic kernel *)
  | Kernel_latency  (** per-vCPU weighted-latency kernel *)
  | Reduce  (** sequential fixed-order reductions *)
  | Carrefour_feed  (** per-epoch carrefour sample feed *)
  | Carrefour_decay  (** heat-table decay, nested in [Carrefour_feed] *)
  | Carrefour_decide  (** user-component decision, nested in [Carrefour_feed] *)
  | P2m_batch  (** batched P2M invalidate/map/migrate replay *)
  | Pv_flush  (** PV queue partition flush *)
  | Epoch_tick  (** policy manager epoch tick *)
  | Manager_promote_scan  (** superpage promotion scan, nested in [Epoch_tick] *)
  | Manager_reconcile  (** P2M / guest free-list reconcile sweep, nested in [Epoch_tick] *)
  | Manager_release
      (** first-touch switch's whole free-list release at boot; [P2m_batch]
          nests in it *)
  | Ff_replay  (** fast-forward delta replay of a quiescent epoch *)
  | Churn  (** a full epoch's concrete page churn; [Pv_flush] nests in it *)
  | Guest_refresh
      (** the guest model's placement refresh after a Carrefour period or
          during an evacuation drain *)
  | Outcome  (** a finished run's per-VM results and metrics commit *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every accumulator. *)

val span : phase -> (unit -> 'a) -> 'a
(** Run the thunk, attributing its wall-clock time to the phase.  When
    profiling is disabled this is one atomic read plus the call.
    Spans are inclusive — nested profiled phases double-account. *)

val totals : unit -> (string * int * int) list
(** [(phase name, calls, total ns)] for every phase, taxonomy order. *)

val commit_metrics : unit -> unit
(** Mirror non-zero accumulators into the default metrics registry as
    [profile.<phase>.calls] / [profile.<phase>.ns] counters (no-op
    while metrics are disabled). *)

val render : unit -> string
(** Human-readable table of the non-zero phases. *)
