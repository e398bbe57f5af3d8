(** The 29 applications of the paper's evaluation.

    Five suites: Parsec 2.1, NPB 3.3 (OpenMP), Mosbench (Streamflow
    allocator), X-Stream graph workloads, and YCSB over Cassandra and
    MongoDB.  Each entry carries the paper's measured characterisation
    (Tables 1 and 2) and the derived behaviour-model parameters.

    The derivations are the calibration core of this reproduction:
    - [master_bias] from the first-touch imbalance of Table 1 (the
      relative stddev produced when a fraction [m] of accesses hits the
      master's node is ≈ 2.65 m on 8 nodes);
    - [miss_rate] from the round-4K interconnect load of Table 1
      (higher sustained link load ⇒ more memory-intensive);
    - [remote_burst] models the transient remote spikes that mislead
      Carrefour on thread-local applications (Section 3.5.2). *)

val all : App.t list
(** The 29 applications, in the paper's presentation order. *)

val find : string -> App.t option
(** Case-insensitive lookup by name ("cg.C", "wrmem", ...). *)

val names : string list
