(** Trace wire format: JSONL, one JSON object per line.  The bytes are
    a pure function of the export value — two identical merged traces
    serialise to identical bytes, the property the cross-jobs
    determinism check relies on. *)

type stream_info = {
  label : string;
  emitted : int;
  dropped : int;
  by_class : int array;  (** per {!Event.class_index}, drop-proof totals *)
}

type export = {
  streams : stream_info array;  (** index = stream id, sorted by label *)
  events : Event.merged list;  (** sorted by {!Event.compare_merged} *)
}

exception Corrupt of string

val write_jsonl : Buffer.t -> export -> unit
(** Header line, one metadata line per stream, one line per event. *)

(** One streamed record of a trace file, in file order: stream
    metadata records first, by id from 0 with no gap and by strictly
    ascending label, then events in merged order.  The header line is the fold's own: it checks the
    record counts the header promises. *)
type item =
  | Meta of int * stream_info  (** stream id, metadata *)
  | Ev of Event.merged

val fold_file : string -> init:'a -> f:('a -> item -> 'a) -> 'a
(** Stream a trace file in bounded memory, one line resident at a
    time.  The only trace reader: {!Summary.of_file}, {!Query.run} and
    every [xen_numa_trace] subcommand fold through it.
    @raise Corrupt on malformed or truncated input — a short file is
    an error, never a silently shorter trace: a line that is not JSON
    (a line cut in the middle), an unknown event class, a missing
    header or header counts that differ from the records read, a
    stream id with no metadata record, a stream label that does not
    sort strictly after the previous one (two streams under one
    label), and a stream record after an event.
    @raise Sys_error when the file cannot be opened. *)
