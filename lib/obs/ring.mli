(** Bounded, lossy-by-design ring buffer: fixed capacity,
    overwrite-oldest, explicit drop accounting.

    Invariants (enforced by the qcheck property suite):
    [length t + dropped t = emitted t], and {!to_list} returns exactly
    the most recent [length t] pushed values in push order — the ring
    never reorders or duplicates. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [dummy] initialises the backing array; it is never returned.
    @raise Invalid_argument if [capacity <= 0]. *)

val length : 'a t -> int

val emitted : 'a t -> int
(** Total pushes since creation. *)

val dropped : 'a t -> int
(** Pushes that overwrote an unread entry. *)

val push : 'a t -> 'a -> unit
val to_list : 'a t -> 'a list
(** Kept entries, oldest first. *)
