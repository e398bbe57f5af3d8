(** Topology generality: re-run the policy comparison on a different
    host — a fully connected four-node Intel-style machine — to check
    that the paper's conclusions (which policy wins for which memory
    behaviour) are properties of the access patterns, not of the AMD48
    interconnect. *)

val print : ?seed:int -> unit -> unit
(** A representative app per class (cg.C, sp.C, kmeans) on AMD48 and
    Intel32 under every runtime-selectable policy: the best policy and
    the worst/best completion ratio over the policies. *)
