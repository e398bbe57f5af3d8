(** Memory-RAS runs: the hardware-fault section of the bench harness.
    Runs a workload x policy grid under ECC-error storms and a
    mid-run whole-node failure, and prints one RAS-degradation row per
    (cell, scenario) — including the evacuation progress of the
    node-fail runs. *)

val print : ?seed:int -> unit -> unit
(** Run and print the grid (cells x scenarios), parallelised over the
    engine pool with per-cell derived seeds (bit-identical whatever
    the job count).  Robustness headline: every scenario completes — a
    node failure degrades throughput, it never wedges a run.
    @raise Runs.Epoch_cap naming the first cell that does not. *)
