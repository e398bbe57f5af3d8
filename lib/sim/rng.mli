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

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

type zipf
(** A Zipf law over ranks [\[0, n)] with exponent [s], its constants
    computed once. *)

val zipf_sampler : n:int -> s:float -> zipf
(** [n] must be positive. *)

val zipf : t -> zipf -> int
(** [zipf t z] samples a rank of [z]'s law; rank 0 is the most
    popular.  Uses rejection-inversion so it is O(1) per draw even for
    large [n]; [n = 1] always gives 0 and draws nothing. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
