(** A trace session: registry of per-run event streams plus the
    deterministic merge and file export.

    Determinism contract: stream labels are pure functions of run
    configuration and seed; the merge sorts streams by label and
    events by (time, stream id, in-stream sequence).  The exported
    bytes are therefore identical at any [--jobs] count for the same
    seed — the discipline [test_pool.ml] enforces for results,
    extended to traces. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the per-stream ring capacity (default 4096). *)

val stream : t -> label:string -> Stream.t
(** Create and register a stream.  If [label] is already registered
    (two workers racing on the same memoised cell, which produce
    bit-identical event sequences), the returned stream is detached:
    usable, but excluded from the export. *)

val stream_count : t -> int

(** {1 Global session} — how the engine finds the capture without
    threading a handle through every layer. *)

val install : t -> unit
val uninstall : unit -> unit
val current : unit -> t option
val installed : unit -> bool

(** {1 Merge and export} *)

val export : t -> Codec.export

val render_jsonl : t -> string

val write_file : t -> string -> unit
(** Write the merged trace to [file] as JSONL, whatever its suffix. *)

val start : capacity:int -> string -> t
(** [start ~capacity file] creates a session, empties [file] and
    installs the session.  Both front ends call it for [--trace FILE]
    before any run, so an unwritable [file] fails before the
    simulation rather than after it.  Until {!write_file} writes the
    trace, the file is empty, which every reader rejects.
    @raise Sys_error when [file] cannot be written; nothing is
    installed then. *)

val commit_metrics : t -> unit
(** Mirror per-class emission totals, drops and stream count into the
    default metrics registry (no-op while metrics are disabled), so
    the summariser and the registry report the same counts. *)
