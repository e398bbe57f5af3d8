(** xenalyze-style digest of a merged trace: per-class counts,
    inter-arrival statistics, and a per-epoch activity timeline. *)

type class_row = {
  cls : Event.class_;
  emitted : int;  (** drop-proof emission total over all streams *)
  kept : int;  (** events present in the export *)
  inter_arrival : Sim.Stats.Histogram.t;
}

type epoch_row = {
  epoch : int;  (** -1 = before the first boundary (boot) *)
  events : int;
  faults : int;
  migrations : int;
  pv_ops : int;
  breaker : int;
  hypercalls : int;
}

type t = {
  streams : Codec.stream_info array;
  total_emitted : int;
  total_kept : int;
  total_dropped : int;
  classes : class_row list;
  timeline : epoch_row list;
}

val of_file : string -> t
(** One bounded-memory pass over a trace file ({!Codec.fold_file}).
    @raise Codec.Corrupt on malformed or truncated input.
    @raise Sys_error when the file cannot be opened. *)

val of_export : Codec.export -> t
(** The same fold over an in-memory export: its streams, then its
    events in merged order. *)

(** {1 Epoch attribution} *)

type epochs
(** Per-stream current-epoch cells. *)

val epochs : unit -> epochs

val epoch_of : epochs -> Event.merged -> int
(** Feed the next event in merged order; returns its epoch: that of
    the last [Epoch_boundary] its own stream emitted, the boundary
    itself included, or -1 before the stream's first kept boundary. *)

val class_counts : t -> (Event.class_ * int) list
(** Per-class emission totals — matches the registry counters
    {!Trace.commit_metrics} writes. *)

val render : ?timeline_rows:int -> t -> string
(** Human-readable report; the timeline is truncated to
    [timeline_rows] (default 24) epochs. *)
