(** Discrete-event simulation core.

    A minimal priority queue of timestamped events plus a clock.  Used
    by the cycle-level memory microsimulator, which needs exact
    ordering; the coarse application engine uses fixed epochs
    instead. *)

type 'a t

val create : unit -> 'a t

val now : 'a t -> float
(** Current simulated time, in seconds.  Starts at 0. *)

val schedule : 'a t -> at:float -> 'a -> unit
(** [schedule q ~at e] enqueues [e] at absolute time [at].  [at] must
    not be in the past. *)

val schedule_after : 'a t -> delay:float -> 'a -> unit
(** [schedule_after q ~delay e] enqueues [e] at [now q +. delay]. *)

val next : 'a t -> (float * 'a) option
(** Pops the earliest event and advances the clock to its timestamp.
    Events with equal timestamps pop in insertion order (FIFO). *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val run : 'a t -> handler:(float -> 'a -> unit) -> until:float -> unit
(** Drains events in timestamp order, calling [handler time event],
    until the queue is empty or the next event is after [until].
    Handlers may schedule further events. *)
