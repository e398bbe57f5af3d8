(** Trace wire formats: JSONL (one JSON object per line) and a compact
    fixed-record binary encoding.  Both are pure functions of the
    export value — two identical merged traces serialise to identical
    bytes, the property the cross-jobs determinism check relies on. *)

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

val write_binary : Buffer.t -> export -> unit

(** One streamed record of a trace file, in file order: stream
    metadata records first, by id from 0 with no gap, then events in
    merged order. *)
type item =
  | Header of { streams : int; events : int }
      (** the JSONL header line and the record counts it promises
          (binary traces never yield it) *)
  | Meta of int * stream_info  (** stream id, metadata *)
  | Ev of Event.merged

val fold_file : string -> init:'a -> f:('a -> item -> 'a) -> 'a
(** Stream a trace file (either codec, auto-detected by magic) in
    bounded memory: one line or fixed-size record resident at a time.
    The only trace reader: {!Summary.of_file}, {!Query.run} and every
    [xen_numa_trace] subcommand fold through it.
    @raise Corrupt on malformed or truncated input — a short file is
    an error, never a silently shorter trace: a file without the binary
    magic that is not JSON lines, an unknown event class, a missing JSONL header or header
    counts that differ from the records read, a JSONL stream id with
    no metadata record (or a stream record after an event), and
    trailing bytes after a binary trace.
    @raise Sys_error when the file cannot be opened. *)
