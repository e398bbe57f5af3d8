type t = {
  topo : Topology.t;
  node_accesses : float array;
  node_bytes : float array;
  link_bytes : float array;
  mutable local : float;
  mutable remote : float;
  (* Per-epoch byte counters, reset by [end_epoch]. *)
  epoch_node_bytes : float array;
  epoch_link_bytes : float array;
  mutable epochs : int;
  last_controller_util : float array;
  last_link_util : float array;
  mutable sum_max_link_util : float;
}

let gib = 1024.0 *. 1024.0 *. 1024.0

let create topo =
  let nodes = Topology.node_count topo in
  let nlinks = Array.length (Topology.links topo) in
  {
    topo;
    node_accesses = Array.make nodes 0.0;
    node_bytes = Array.make nodes 0.0;
    link_bytes = Array.make nlinks 0.0;
    local = 0.0;
    remote = 0.0;
    epoch_node_bytes = Array.make nodes 0.0;
    epoch_link_bytes = Array.make nlinks 0.0;
    epochs = 0;
    last_controller_util = Array.make nodes 0.0;
    last_link_util = Array.make nlinks 0.0;
    sum_max_link_util = 0.0;
  }

let topology t = t.topo

let record_accesses t ~src ~dst ~count ~bytes_per_access =
  let bytes = count *. bytes_per_access in
  t.node_accesses.(dst) <- t.node_accesses.(dst) +. count;
  t.node_bytes.(dst) <- t.node_bytes.(dst) +. bytes;
  t.epoch_node_bytes.(dst) <- t.epoch_node_bytes.(dst) +. bytes;
  if src = dst then t.local <- t.local +. count
  else begin
    t.remote <- t.remote +. count;
    List.iter
      (fun (l : Topology.link) ->
        t.link_bytes.(l.link_id) <- t.link_bytes.(l.link_id) +. bytes;
        t.epoch_link_bytes.(l.link_id) <- t.epoch_link_bytes.(l.link_id) +. bytes)
      (Topology.route t.topo src dst)
  end

let node_accesses t = Array.copy t.node_accesses
let node_bytes t = Array.copy t.node_bytes
let local_accesses t = t.local
let remote_accesses t = t.remote
let link_bytes t = Array.copy t.link_bytes

let imbalance t = Sim.Stats.relative_stddev t.node_accesses

let end_epoch t ~duration =
  assert (duration > 0.0);
  let controller_cap = Topology.controller_gib_per_s t.topo *. gib *. duration in
  Array.iteri
    (fun n bytes ->
      let u = Float.min 1.0 (bytes /. controller_cap) in
      t.last_controller_util.(n) <- u;
      t.epoch_node_bytes.(n) <- 0.0)
    t.epoch_node_bytes;
  let links = Topology.links t.topo in
  let max_util = ref 0.0 in
  Array.iteri
    (fun i bytes ->
      let cap = links.(i).Topology.gib_per_s *. gib *. duration in
      let u = Float.min 1.0 (bytes /. cap) in
      t.last_link_util.(i) <- u;
      if u > !max_util then max_util := u;
      t.epoch_link_bytes.(i) <- 0.0)
    t.epoch_link_bytes;
  t.sum_max_link_util <- t.sum_max_link_util +. !max_util;
  t.epochs <- t.epochs + 1

let epoch_count t = t.epochs
let last_controller_utilisation t = Array.copy t.last_controller_util
let last_link_utilisation t = Array.copy t.last_link_util

let max_route_saturation t ~src ~dst =
  let sat = ref t.last_controller_util.(dst) in
  if src <> dst then
    List.iter
      (fun (l : Topology.link) ->
        if t.last_link_util.(l.link_id) > !sat then sat := t.last_link_util.(l.link_id))
      (Topology.route t.topo src dst);
  !sat

let raw_link_reading ~utilisation =
  let u = Float.max 0.0 (Float.min 1.0 utilisation) in
  0.5 +. (0.3 *. u)

let normalise_link_reading ~raw =
  let r = Float.max 0.5 (Float.min 0.8 raw) in
  (r -. 0.5) /. 0.3

let interconnect_load t =
  if t.epochs = 0 then 0.0
  else begin
    let avg = t.sum_max_link_util /. float_of_int t.epochs in
    normalise_link_reading ~raw:(raw_link_reading ~utilisation:avg)
  end

let reset t =
  Array.fill t.node_accesses 0 (Array.length t.node_accesses) 0.0;
  Array.fill t.node_bytes 0 (Array.length t.node_bytes) 0.0;
  Array.fill t.link_bytes 0 (Array.length t.link_bytes) 0.0;
  t.local <- 0.0;
  t.remote <- 0.0;
  Array.fill t.epoch_node_bytes 0 (Array.length t.epoch_node_bytes) 0.0;
  Array.fill t.epoch_link_bytes 0 (Array.length t.epoch_link_bytes) 0.0;
  t.epochs <- 0;
  Array.fill t.last_controller_util 0 (Array.length t.last_controller_util) 0.0;
  Array.fill t.last_link_util 0 (Array.length t.last_link_util) 0.0;
  t.sum_max_link_util <- 0.0
