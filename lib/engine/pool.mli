(** Multicore execution of independent simulation tasks.

    The experiment grids of the paper — (workload, policy, mode) cells
    — are embarrassingly parallel: every cell builds its own system,
    domains and RNG from an explicit seed, so cells can run on any
    OCaml 5 domain in any order without changing a single bit of the
    output.  This pool fans an array of thunks out over
    [Domain.spawn]ed workers claiming task indices from a shared
    atomic cursor (no allocation per task) and collects the results by
    task index.

    Determinism contract: tasks must not share mutable state (beyond
    internally synchronized memoization) and must derive any
    randomness from a seed that is a function of the task itself — see
    {!Experiments.Runs.cell_seed} for the seeding scheme the
    experiment grids use.

    Worker count: [~jobs] argument if given, else the process-wide
    default installed by {!set_default_jobs} (the bench driver's
    [--jobs]), else the [XEN_NUMA_JOBS] environment variable, else
    [Domain.recommended_domain_count ()].  [~jobs:1] runs the tasks
    sequentially on the calling domain with no spawning at all.

    Whatever the resolved count, the pool never spawns more domains
    than [Domain.recommended_domain_count ()]: surplus domains cannot
    run concurrently anyway, yet each live domain still participates
    in every stop-the-world minor collection, so oversubscription
    makes the grid slower — dramatically so on small hosts.  Results
    are index-addressed and tasks seed their own RNGs, so the worker
    count never changes any output bit, only the schedule. *)

val available_jobs : unit -> int
(** Worker count from [XEN_NUMA_JOBS] (if a positive integer) or
    [Domain.recommended_domain_count ()].  Always >= 1. *)

val set_default_jobs : int -> unit
(** Install a process-wide default worker count (clamped to >= 1),
    overriding [XEN_NUMA_JOBS] for subsequent calls without an
    explicit [~jobs]. *)

val default_jobs : unit -> int
(** The count {!run_all} uses when [~jobs] is omitted. *)

val run_all : ?jobs:int -> (unit -> 'a) array -> 'a array
(** [run_all tasks] executes every thunk and returns their results
    indexed exactly like [tasks], whatever the execution schedule.
    If any task raises, the exception of the lowest-indexed failing
    task is re-raised (with its backtrace) after all workers have
    drained; the remaining tasks still run. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a] with the applications of [f]
    distributed over the pool; result order follows [a]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f l] is [List.map f l] with the applications of [f]
    distributed over the pool; result order follows [l]. *)
