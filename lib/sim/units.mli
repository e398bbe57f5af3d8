(** Unit helpers shared across the simulator.

    Time is represented as seconds in [float]; sizes as bytes in [int];
    frequencies in Hz.  These helpers keep the unit conversions explicit
    at call sites. *)

val kib : int -> int
val mib : int -> int
val gib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count ("16.0 GiB"). *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-readable duration ("307 us", "1.24 s"). *)
