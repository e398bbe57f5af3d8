(** Named counters, gauges and log-bucketed latency histograms in one
    process-wide registry.

    The registry backs the [--metrics] CLI flag and the benchmark's
    per-layer metrics.  The front doors ({!incr}, {!gauge}, {!observe},
    {!merge_histogram}) are single-atomic-read no-ops while collection
    is disabled, which keeps clean runs bit-identical and essentially
    free of overhead. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val incr : ?by:int -> string -> unit
(** Bump a counter (no-op when disabled). *)

val gauge : string -> float -> unit
(** Set a gauge (no-op when disabled). *)

val observe : string -> float -> unit
(** Add a sample to a histogram (no-op when disabled). *)

val merge_histogram : string -> Sim.Stats.Histogram.t -> unit
(** Fold a whole histogram into a registry histogram in one locked
    step (no-op when disabled).  The source is not consumed. *)

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

type entry =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_summary

val snapshot : unit -> (string * entry) list
(** Registry contents sorted by name. *)

val counter_value : string -> int option
(** Current value of a counter; [None] if absent or another kind. *)

val reset : unit -> unit

val render : unit -> string
