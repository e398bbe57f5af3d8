(** Chaos runs: the fault-injection / graceful-degradation section of
    the bench harness.  Runs a churn-heavy application under a grid of
    composed fault plans and prints one degradation-summary row per
    plan. *)

val plans : (string * string) list
(** (label, plan string) pairs of the grid. *)

val eager_carrefour : Policies.Carrefour.User_component.config
(** Carrefour thresholds eager enough that the grid's faults reach the
    migration path (the RAS grid uses them too). *)

val run : ?seed:int -> unit -> Engine.Result.t list
(** Results in [plans] order; parallelised over the engine pool with
    per-plan derived seeds (bit-identical whatever the job count). *)

val print : ?seed:int -> unit -> string list
(** Print the grid; returns the plans that hit the epoch cap (see
    {!Runs.capped}). *)
