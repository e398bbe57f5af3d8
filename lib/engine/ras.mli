(** Node RAS: memory-controller failures and bandwidth loss from a
    [node_fail] fault plan, mirrored into the machine each epoch.

    {b State owned:} each node's effective controller capacity per
    epoch (62% of the plate bandwidth, scaled by its bandwidth factor),
    its bandwidth factor and the failing state seen last epoch; the
    plan's node-failure targets.

    {b Run state written:} the topology's online mask, the machine's
    node pools (offline and online) and the managers' evacuation
    requests.  Every other run leaves all three alone and keeps the
    full capacity. *)

type t

val create :
  Xen.System.t -> Faults.Injector.t -> managers:Policies.Manager.t list ->
  home_nodes:Numa.Topology.node list -> t
(** Draw the plan's failure targets from the guests' [home_nodes] (so a
    failure lands where memory lives) and start every node healthy.
    Call once after every VM is set up, before epoch 0; the managers,
    in VM order, receive the evacuation requests. *)

val capacity : t -> float array
(** Bytes each node's controller serves per epoch; read, never
    written, by the caller. *)

val bw_factor : t -> float array
(** Each node's bandwidth factor as last read from
    {!Faults.Injector.node_bandwidth_factor} (1.0 while healthy);
    read, never written, by the caller. *)

val step : t -> bool
(** Mirror this epoch's injector state (after
    {!Faults.Injector.set_epoch}): update each target's bandwidth
    factor and capacity, and at a failing transition take the node
    offline and ask every manager to evacuate it (or bring it back
    online and cancel).  Targets move in ascending order.  Returns
    whether any node's failing state or bandwidth factor changed. *)
