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
(** Create and register a stream.  Every stream registers, also under
    a label already registered: [label] names the whole run
    ([Engine.Config.label]), so streams that share it must turn out
    identical, which {!export} verifies. *)

val stream_count : t -> int
(** Streams the export holds: one per distinct label.
    @raise Invalid_argument as {!export}. *)

(** {1 Global session} — how the engine finds the capture without
    threading a handle through every layer. *)

val install : t -> unit
val uninstall : unit -> unit
val current : unit -> t option
val installed : unit -> bool

(** {1 Merge and export} *)

val export : t -> Codec.export
(** Streams sorted by label, one per label, and their events merged.
    Streams that share a label must be identical (emitted and dropped
    counts, per-class counts and kept events); the export keeps one.
    @raise Invalid_argument naming the label when two differ. *)

val render_jsonl : t -> string

val write_file : t -> string -> unit
(** Write the merged trace to [file] as JSONL, whatever its suffix.
    @raise Invalid_argument as {!export}. *)

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
