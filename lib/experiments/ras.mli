(** Memory-RAS runs: the hardware-fault section of the bench harness.
    Runs a workload x policy grid under ECC-error storms and a
    mid-run whole-node failure, and prints one RAS-degradation row per
    (cell, scenario) — including the evacuation progress of the
    node-fail runs. *)

val run : ?seed:int -> unit -> Engine.Result.t list
(** Results in grid order (cells x scenarios); parallelised over the
    engine pool with per-cell derived seeds (bit-identical whatever
    the job count). *)

val print : ?seed:int -> unit -> string list
(** Print the grid; returns the cells that hit the epoch cap (see
    {!Runs.capped}). *)
