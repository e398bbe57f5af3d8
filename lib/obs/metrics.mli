(** Named counters, gauges and log-bucketed latency histograms.

    The default (process-wide) registry backs the [--metrics] CLI flag
    and the bench JSON metrics section.  The guarded front doors
    ({!incr}, {!gauge}, {!observe}) are single-atomic-read no-ops
    while collection is disabled, which keeps clean runs bit-identical
    and essentially free of overhead. *)

type t

val create : unit -> t
val default : t

val enabled : unit -> bool
val set_enabled : bool -> unit

val incr : ?by:int -> string -> unit
(** Bump a counter in the default registry (no-op when disabled). *)

val gauge : string -> float -> unit
(** Set a gauge in the default registry (no-op when disabled). *)

val observe : string -> float -> unit
(** Add a sample to a histogram in the default registry (no-op when
    disabled). *)

val merge_histogram : string -> Sim.Stats.Histogram.t -> unit
(** Fold a whole histogram into a registry histogram in one locked
    step (no-op when disabled).  The source is not consumed. *)

(** Unguarded variants against an explicit registry (used by tests). *)

val incr_in : t -> ?by:int -> string -> unit
val gauge_in : t -> string -> float -> unit
val observe_in : t -> string -> float -> unit

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
(** Default-registry contents sorted by name. *)

val snapshot_of : t -> (string * entry) list

val counter_value : ?registry:t -> string -> int option
(** Current value of a counter; [None] if absent or another kind. *)

val reset : unit -> unit

val pp : Format.formatter -> unit -> unit
val render : unit -> string
