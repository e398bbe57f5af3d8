(** ASCII tables for experiment output. *)

type align = Left | Right

val render : header:string list -> ?align:align list -> string list list -> string
(** Render a table with a header row, column separators and padding.
    [align] defaults to left for the first column and right for the
    rest.  Rows shorter than the header are padded with empty cells. *)

val print : header:string list -> ?align:align list -> string list list -> unit
(** [render] to stdout. *)

val fmt_pct : float -> string
(** Format a fraction as a percentage ("135%"). *)

val fmt_ratio : float -> string
(** Format a ratio ("2.31x"). *)

val fmt_secs : float -> string

val degradation_header : first:string -> string list
(** Header of the chaos-run summary table; [first] labels the leading
    column (the fault-plan name). *)

val degradation_row :
  first:string ->
  injected:int ->
  retries:int ->
  deferred:int ->
  drained:int ->
  fallback:int ->
  trips:int ->
  level:int ->
  lost:int ->
  reconciled:int ->
  p99:float ->
  completion:float ->
  string list
(** One summary row per run: faults injected, migration retries,
    deferred pages (and how many later drained), fallback placements,
    circuit-breaker trips and final level, lost batches, reconciled
    pfns, p99 memory latency (cycles), completion time. *)

val ras_header : first:string -> string list
(** Header of the memory-RAS summary table; [first] labels the leading
    column (the workload/policy cell). *)

val ras_row :
  first:string ->
  scenario:string ->
  injected:int ->
  ce:int ->
  ue:int ->
  offlined:int ->
  evacuated:int ->
  evac_epochs:int ->
  p99:float ->
  completion:float ->
  slowdown:float ->
  string list
(** One row per (cell, fault scenario): faults injected, correctable and
    uncorrectable ECC errors handled, frames retired by the UE handler,
    frames evacuated off failing nodes, epochs the drain was in
    progress, p99 memory latency (cycles), completion time and the
    slowdown against the cell's fault-free run. *)

val latency_header : first:string -> string list
(** Header of the per-domain tail-latency table; [first] labels the
    leading column (the app/cell name). *)

val latency_row :
  first:string ->
  samples:int ->
  mean:float ->
  p50:float ->
  p95:float ->
  p99:float ->
  p999:float ->
  max:float ->
  string list
(** One row per domain: sample count and the latency distribution
    (mean, p50/p95/p99/p99.9, max) in cycles. *)
