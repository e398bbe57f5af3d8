(** Shared, memoized single-application runs.

    The figures and tables of the paper reuse the same underlying runs
    (e.g. the Linux first-touch run is the baseline of Figure 2 and a
    series of Figures 1, 6 and 10); this cache executes each distinct
    (mode, app, policy, mcs) combination once per process. *)

type key = {
  mode : Engine.Config.mode;
  app : string;
  policy : Policies.Spec.t;
  mcs : bool;
}

exception Epoch_cap of { label : string; max_epochs : int }
(** The run [label] ({!Engine.Config.label}) stopped at its
    [max_epochs] cap without completing. *)

val hit_cap : Engine.Config.t -> Engine.Result.t -> bool
(** [epochs >= max_epochs]: the run stopped at the cap, so its result
    is no measurement.  The one statement of the rule, shared by every
    grid and by the command-line front end. *)

val cap_message : string -> int -> string
(** ["LABEL hit the epoch cap (N epochs) without completing"]. *)

val run_cell : Engine.Config.t -> Engine.Result.t
(** Simulate one grid cell: every experiment grid runs the engine
    through here.
    @raise Epoch_cap, named by {!Engine.Config.label}, when the run
    {!hit_cap}. *)

val run : ?seed:int -> key -> Engine.Result.t
(** Simulate (memoized) through {!run_cell}.  The engine seed is
    {!task_seed} of the key, so each grid cell owns an independent,
    schedule-free RNG stream; the cache is domain-safe and may be hit
    from {!Engine.Pool} workers concurrently.
    @raise Invalid_argument on an unknown app. *)

val cell_seed : base:int -> string -> int
(** Deterministic per-cell seed: FNV-1a over the cell's stable label,
    folded into [base].  Independent of execution order, worker count
    and platform.  Every experiment grid seeds its cells with it. *)

val task_seed : base:int -> key -> int
(** {!cell_seed} of the key's (mode, app, policy, mcs) identity. *)

val completion : ?seed:int -> key -> float

val linux : ?mcs:bool -> Workloads.App.t -> Policies.Spec.t -> key
val xen_plus : ?mcs:bool -> Workloads.App.t -> Policies.Spec.t -> key

val mcs_apps : string list
(** Applications that get MCS spin locks in Xen+ and LinuxNUMA
    (facesim and streamcluster, Section 5.3.2). *)

val uses_mcs : Workloads.App.t -> bool

val xen_stock : Workloads.App.t -> key
(** Stock Xen: round-1G, pv I/O, no MCS. *)

val xen_plus_default : Workloads.App.t -> key
(** Xen+ baseline: round-1G with passthrough I/O and MCS where
    applicable. *)
