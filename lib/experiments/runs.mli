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

val run : ?seed:int -> key -> Engine.Result.t
(** Simulate (memoized).  The engine seed is {!task_seed} of the key,
    so each grid cell owns an independent, schedule-free RNG stream;
    the cache is domain-safe and may be hit from {!Engine.Pool}
    workers concurrently.  @raise Invalid_argument on an unknown
    app. *)

val cell_seed : base:int -> string -> int
(** Deterministic per-cell seed: FNV-1a over the cell's stable label,
    folded into [base].  Independent of execution order, worker count
    and platform.  Every experiment grid seeds its cells with it. *)

val task_seed : base:int -> key -> int
(** {!cell_seed} of the key's (mode, app, policy, mcs) identity. *)

val completion : ?seed:int -> key -> float

val linux : ?mcs:bool -> Workloads.App.t -> Policies.Spec.t -> key
val xen : Workloads.App.t -> Policies.Spec.t -> key
val xen_plus : ?mcs:bool -> Workloads.App.t -> Policies.Spec.t -> key

val mcs_apps : string list
(** Applications that get MCS spin locks in Xen+ and LinuxNUMA
    (facesim and streamcluster, Section 5.3.2). *)

val uses_mcs : Workloads.App.t -> bool

val linux_numa : Workloads.App.t -> key
(** LinuxNUMA: best Linux policy (Table 4) with MCS where applicable. *)

val xen_plus_numa : Workloads.App.t -> key
(** Xen+NUMA: best Xen+ policy (Table 4) with MCS where applicable. *)

val xen_stock : Workloads.App.t -> key
(** Stock Xen: round-1G, pv I/O, no MCS. *)

val xen_plus_default : Workloads.App.t -> key
(** Xen+ baseline: round-1G with passthrough I/O and MCS where
    applicable. *)

val clear_cache : unit -> unit

val capped : max_epochs:int -> (string * Engine.Result.t) list -> string list
(** The labels of the [(label, result)] cells that ran into the
    [max_epochs] cap instead of completing, in input order; prints one
    [WARNING] line per such cell.  The bench harness exits non-zero
    when a section reports any. *)
