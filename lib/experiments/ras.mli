(** Memory-RAS runs: the hardware-fault section of the bench harness.
    Runs a workload x policy grid under ECC-error storms and a
    mid-run whole-node failure, and prints one RAS-degradation row per
    (cell, scenario) — including the evacuation progress of the
    node-fail runs. *)

val print : ?seed:int -> unit -> string list
(** Run and print the grid (cells x scenarios), parallelised over the
    engine pool with per-cell derived seeds (bit-identical whatever
    the job count); returns the cells that hit the epoch cap (see
    {!Runs.capped}). *)
