(** Result checks and the statistics the benchmark reports. *)

val check : max_epochs:int -> Engine.Result.t -> (unit, string) result
(** Invariants every completed run must satisfy: it ended before
    [max_epochs]; every VM has a finite, positive completion time, a
    [local_fraction] in [\[0, 1\]] and at least one latency sample; and
    no more epochs were replayed than run.  [Error] names the first
    violation. *)

val encode : Engine.Result.t -> string
(** Marshalled bytes of the result, the unit of the result digests. *)

val percentile : float -> float array -> float
(** [percentile p xs]: nearest-rank percentile, [p] in (0, 100].
    @raise Invalid_argument on an empty array. *)

val beyond : float -> int -> int
(** [beyond p n]: samples strictly above the nearest-rank [p]-th
    percentile of [n] samples.  A tail percentile is reported only
    when this is at least 10. *)

val median : float array -> float

(** {1 Reference time}

    Other tenants of a shared host slow every memory access for minutes
    at a time, by up to 2x, and CPU time slows with them.  The benchmark
    therefore runs a fixed calibration loop between cells and reports
    times scaled to a host on which that loop takes {!reference_ms}. *)

val calibration_ms : unit -> float
(** Host milliseconds of one fixed calibration loop, shaped like the
    simulator's own work: zero a 4 MiB float array, scatter 200,000
    read-modify-writes over it, and refill a hash table with 20,000
    keys.  Run it right after a full major collection. *)

val reference_ms : float
(** The calibration loop's time on the reference host, 4 ms. *)

val host_factor : float array -> int -> float
(** [host_factor cal i] converts cell [i]'s host time into reference
    time.  [cal.(k)] is the calibration time measured just before the
    [k]-th cell of a pass, and [cal.(n)] the one after its last cell.
    The factor is {!reference_ms} over the median of the two
    calibrations before cell [i] and the two after it, so one disturbed
    calibration does not move it.
    @raise Invalid_argument unless [0 <= i < Array.length cal - 1]. *)

val peak_rss_mb : unit -> float
(** The process's resident-set high-water mark ([VmHWM]), MiB; [nan]
    where [/proc] is unavailable. *)
