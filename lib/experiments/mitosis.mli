(** The Mitosis grid: radix page-walk pricing ([--pt-walk]) and
    per-node page-table replication ([--replicate-pt]) on/off across
    round-1G and first-touch/carrefour for two TLB-sensitive
    applications.  Walk-off columns replay the pre-walk-model engine
    bit for bit; walk-on without replication pays remote walk levels
    wherever vCPUs run far from the tables; replication collapses the
    walk term back to local pricing and charges per-mirror write
    propagation instead. *)

val print : ?seed:int -> unit -> unit
(** Run and print, per (app, policy) cell, the four (pt_walk,
    replicate_pt) variants (off,off), (off,on), (on,off), (on,on).  All
    four share one derived seed, so their workload streams are
    identical and the deltas are the walk pricing and replication
    cost; parallelised over the engine pool (bit-identical whatever
    the job count). *)
