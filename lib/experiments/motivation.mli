(** The introduction's argument, made executable.

    The alternative to the paper's design is exposing the NUMA topology
    to the guest (the Amazon EC2 approach) so the guest OS applies its
    own NUMA policy.  That freezes placement decisions against the
    topology the VM booted with, so it only works while vCPUs never
    move — and the hypervisor must keep balancing load by moving
    vCPUs.  After a migration, the memory a guest placed "locally"
    is remote, and no mainstream OS copes with a mutating topology.

    The experiment runs a thread-local application next to a noisy
    neighbour whose vCPUs retire over time.  The credit scheduler
    steals the victim's vCPUs onto freed pCPUs:

    - with placement frozen at first touch (what a guest-side policy
      amounts to), locality collapses and stays collapsed;
    - with the hypervisor's Carrefour enabled, the pages chase the
      vCPUs and locality recovers — placement decisions belong below
      the topology, in the hypervisor. *)

val print : ?seed:int -> unit -> unit
(** Three configurations of the victim: first-touch pinned (the
    baseline), first-touch under vCPU migration, and
    first-touch/Carrefour under vCPU migration; completion, local
    fraction and page migrations of each. *)

val configs : ?seed:int -> unit -> (string * Engine.Config.t) list
(** The three runs {!print} reports, each with its row label. *)
