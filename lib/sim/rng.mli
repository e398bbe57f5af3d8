(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that runs are reproducible from a single seed.  The
    generator is splitmix64: fast, 64-bit, and splittable, which lets
    each simulated thread or device own an independent stream derived
    from the root seed. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each simulated entity its own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed positive float with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed float (Box-Muller). *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [\[0, n)] under a Zipf law with
    exponent [s]; rank 0 is the most popular.  Uses rejection-inversion
    so it is O(1) per draw even for large [n]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
