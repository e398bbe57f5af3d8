(** Streaming trace query engine: one bounded-memory pass over a trace
    file (either codec), filtering by class / domain / vcpu / node /
    epoch window and aggregating counts, per-epoch rates, top-k hot
    frames and a per-(node, epoch) heatmap.

    Epoch attribution is {!Summary.epoch_of}: an event belongs to the
    epoch of the last [Epoch_boundary] its own stream emitted before
    it.  Aggregates are pure functions of the trace bytes. *)

type filter = {
  classes : Event.class_ list;  (** [] = every class *)
  domain : int option;
  vcpu : int option;
  node : int option;
  epoch_lo : int option;
  epoch_hi : int option;
}

val filter :
  ?classes:Event.class_ list ->
  ?domain:int ->
  ?vcpu:int ->
  ?node:int ->
  ?epoch_lo:int ->
  ?epoch_hi:int ->
  unit ->
  filter
(** Everything defaults to "no constraint". *)

val parse_class : string -> (Event.class_, string) result
(** Resolve one class name; the error message enumerates every valid
    class name. *)

val parse_classes : string -> (Event.class_ list, string) result
(** Comma-separated class list; empty entries are skipped. *)

val parse_epochs : string -> (int * int, string) result
(** ["E"] or ["LO-HI"] (inclusive). *)

type class_row = {
  cls : Event.class_;
  emitted : int;  (** drop-proof stream-metadata total *)
  matched : int;  (** kept events passing the filter *)
}

type t = {
  scanned : int;  (** kept events read from the file *)
  matched : int;
  dropped : int;  (** ring drops over all streams *)
  rows : class_row list;  (** classes with emitted or matched > 0 *)
  epoch_lo : int;  (** observed epoch range among matched events; *)
  epoch_hi : int;  (** (0, -1) when nothing matched *)
  rate_per_epoch : float;  (** matched / epochs spanned *)
  top_pfns : (int * int) list;  (** (pfn, matched count), count desc *)
  heat : ((int * int) * int) list;  (** ((epoch, node), matched count) *)
}

val run : ?top:int -> filter -> string -> t
(** Stream the file at the path through the filter ([top] bounds the
    hot-frame list, default 10).
    @raise Codec.Corrupt on malformed or truncated traces.
    @raise Sys_error when the file cannot be opened. *)

val render_table : t -> string
val render_jsonl : t -> string

val heatmap_csv : t -> string
(** CSV: one row per epoch, one [node<N>] column per node seen among
    matched events, zero-filled. *)
