(** A single-writer trace stream: one bounded event ring per engine
    run, stamped with the run's simulated virtual time.

    Streams are created through {!Trace.stream}, which registers them
    for the deterministic merge; the runner owns the stream for the
    duration of the run and updates its clock each epoch. *)

type t

val create : ?capacity:int -> label:string -> unit -> t
(** Default capacity 4096 events.  Prefer {!Trace.stream}: a stream
    created directly is never part of a merged trace. *)

val label : t -> string

val set_time : t -> float -> unit
(** Set the simulated clock subsequent events are stamped with. *)

val emit : ?domain:int -> ?vcpu:int -> ?pfn:int -> ?node:int -> ?arg:int -> t -> Event.class_ -> unit
(** Append an event stamped with the stream clock.  Constant-time;
    overwrites the oldest event when the ring is full. *)

val emitted : t -> int
val dropped : t -> int

val emitted_by_class : t -> int array
(** Per-{!Event.class_index} emission counts; unlike the ring contents
    these never drop, so summaries can report true totals. *)

val events : t -> (int * Event.t) list
(** Kept events with their in-stream sequence numbers, oldest first. *)
