type t = {
  injector : Faults.Injector.t;
  topo : Numa.Topology.t;
  machine : Memory.Machine.t;
  managers : Policies.Manager.t list;
  fail_nodes : int list;  (* the plan's node-failure targets, ascending *)
  controller_capacity : float;
  (* Per-node effective capacity and bandwidth factor (both move only
     under a [node_fail] plan) and the failing state seen last epoch,
     for transition detection. *)
  capacity : float array;
  bw_factor : float array;
  was_failing : bool array;
}

let create system injector ~managers ~home_nodes =
  let topo = system.Xen.System.topo in
  let nodes = Numa.Topology.node_count topo in
  (* Node-fail targets are drawn from the union of the guests' home
     nodes, so an injected failure always lands where memory lives.
     Safe after setup: at epoch -1 nothing is armed, so boot drew
     nothing from the injector's stream. *)
  Faults.Injector.assign_node_targets injector
    ~candidates:(Array.of_list (List.sort_uniq Int.compare home_nodes)) ~nodes ();
  (* A controller's sustained random-access throughput is well below
     its streaming peak (bank cycle time, row misses): 62% of the
     13 GiB/s plate number, as derived by the request-level simulator
     (Microsim.Memsim.random_access_efficiency). *)
  let controller_capacity =
    0.62 *. Numa.Topology.controller_gib_per_s topo *. (1024.0 ** 3.0) *. Config.epoch_len
  in
  {
    injector;
    topo;
    machine = system.Xen.System.machine;
    managers;
    fail_nodes = List.sort_uniq Int.compare (Faults.Injector.node_fail_targets injector);
    controller_capacity;
    capacity = Array.make nodes controller_capacity;
    bw_factor = Array.make nodes 1.0;
    was_failing = Array.make nodes false;
  }

let capacity t = t.capacity
let bw_factor t = t.bw_factor

let step t =
  List.fold_left
    (fun changed n ->
      let bw = Faults.Injector.node_bandwidth_factor t.injector ~node:n in
      let bw_moved = not (Float.equal bw t.bw_factor.(n)) in
      t.bw_factor.(n) <- bw;
      t.capacity.(n) <- t.controller_capacity *. Float.max 0.01 bw;
      let failing = Faults.Injector.node_failing t.injector ~node:n in
      let flipped = failing <> t.was_failing.(n) in
      if flipped then begin
        t.was_failing.(n) <- failing;
        Numa.Topology.set_node_online t.topo n (not failing);
        if failing then ignore (Memory.Machine.offline_node t.machine n)
        else ignore (Memory.Machine.online_node t.machine n);
        List.iter
          (fun manager ->
            if failing then Policies.Manager.request_evacuation manager ~node:n
            else Policies.Manager.cancel_evacuation manager ~node:n)
          t.managers
      end;
      changed || bw_moved || flipped)
    false t.fail_nodes
