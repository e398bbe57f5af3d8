(** Discrete-event simulation core.

    A minimal priority queue of timestamped events plus a clock.  Used
    by the cycle-level memory microsimulator, which needs exact
    ordering; the coarse application engine uses fixed epochs
    instead. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> at:float -> 'a -> unit
(** [schedule q ~at e] enqueues [e] at absolute time [at].  [at] must
    not be in the past: the clock starts at 0 and stands at the time
    {!next} last returned. *)

val next : 'a t -> (float * 'a) option
(** Pops the earliest event and advances the clock to its timestamp.
    Events with equal timestamps pop in insertion order (FIFO). *)
