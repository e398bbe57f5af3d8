(** Chaos runs: the fault-injection / graceful-degradation section of
    the bench harness.  Runs a churn-heavy application under a grid of
    composed fault plans and prints one degradation-summary row per
    plan. *)

val eager_carrefour : Policies.Carrefour.User_component.config
(** Carrefour thresholds eager enough that the grid's faults reach the
    migration path (the RAS grid uses them too). *)

val print : ?seed:int -> unit -> unit
(** Run and print the grid, parallelised over the engine pool with
    per-plan derived seeds (bit-identical whatever the job count).
    Robustness headline: even under 100 % migration-failure injection
    every run completes (the breaker degrades the policy instead of
    letting the engine spin).
    @raise Runs.Epoch_cap naming the first plan that does not. *)
