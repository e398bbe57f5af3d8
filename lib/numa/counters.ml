(* The scalar accumulators live in an all-float record, whose fields
   OCaml stores unboxed: updating them allocates nothing. *)
type sums = {
  mutable local : float;
  mutable remote : float;
  mutable sum_max_link_util : float;
}

type t = {
  topo : Topology.t;
  node_accesses : float array;
  link_bytes : float array;
  sums : sums;
  (* Per-epoch byte counters, reset by [end_epoch]. *)
  epoch_node_bytes : float array;
  epoch_link_bytes : float array;
  mutable epochs : int;
  last_controller_util : float array;
  last_link_util : float array;
}

let gib = 1024.0 *. 1024.0 *. 1024.0

let create topo =
  let nodes = Topology.node_count topo in
  let nlinks = Array.length (Topology.links topo) in
  {
    topo;
    node_accesses = Array.make nodes 0.0;
    link_bytes = Array.make nlinks 0.0;
    sums = { local = 0.0; remote = 0.0; sum_max_link_util = 0.0 };
    epoch_node_bytes = Array.make nodes 0.0;
    epoch_link_bytes = Array.make nlinks 0.0;
    epochs = 0;
    last_controller_util = Array.make nodes 0.0;
    last_link_util = Array.make nlinks 0.0;
  }

(* The one body of [record_accesses] and [record_row].  Inlined, so
   [record_row]'s counts stay unboxed; the route is walked by index. *)
let[@inline] record t ~src ~dst ~count ~bytes_per_access =
  let bytes = count *. bytes_per_access in
  t.node_accesses.(dst) <- t.node_accesses.(dst) +. count;
  t.epoch_node_bytes.(dst) <- t.epoch_node_bytes.(dst) +. bytes;
  if src = dst then t.sums.local <- t.sums.local +. count
  else begin
    t.sums.remote <- t.sums.remote +. count;
    let route = Topology.route t.topo src dst in
    for i = 0 to Array.length route - 1 do
      let l = route.(i) in
      t.link_bytes.(l) <- t.link_bytes.(l) +. bytes;
      t.epoch_link_bytes.(l) <- t.epoch_link_bytes.(l) +. bytes
    done
  end

let record_accesses t ~src ~dst ~count ~bytes_per_access =
  record t ~src ~dst ~count ~bytes_per_access

let record_row t ~src row ~base ~bytes_per_access =
  for dst = 0 to Array.length t.node_accesses - 1 do
    let count = row.(base + dst) in
    if count > 0.0 then record t ~src ~dst ~count ~bytes_per_access
  done

let node_accesses t = Array.copy t.node_accesses
let local_accesses t = t.sums.local
let remote_accesses t = t.sums.remote
let link_bytes t = Array.copy t.link_bytes

let imbalance t = Sim.Stats.relative_stddev t.node_accesses

let end_epoch t ~duration =
  assert (duration > 0.0);
  let controller_cap = Topology.controller_gib_per_s t.topo *. gib *. duration in
  for n = 0 to Array.length t.epoch_node_bytes - 1 do
    t.last_controller_util.(n) <- Float.min 1.0 (t.epoch_node_bytes.(n) /. controller_cap);
    t.epoch_node_bytes.(n) <- 0.0
  done;
  let links = Topology.links t.topo in
  let max_util = ref 0.0 in
  for i = 0 to Array.length t.epoch_link_bytes - 1 do
    let cap = links.(i).Topology.gib_per_s *. gib *. duration in
    let u = Float.min 1.0 (t.epoch_link_bytes.(i) /. cap) in
    t.last_link_util.(i) <- u;
    if u > !max_util then max_util := u;
    t.epoch_link_bytes.(i) <- 0.0
  done;
  t.sums.sum_max_link_util <- t.sums.sum_max_link_util +. !max_util;
  t.epochs <- t.epochs + 1

let epoch_count t = t.epochs
let last_controller_utilisation t = Array.copy t.last_controller_util
let last_link_utilisation t = Array.copy t.last_link_util

(* [Latency.mem_cycles] of each pair's route-max saturation, written
   out in this one body with the same operations in the same order, so
   the results are bit-identical and no float crosses a call. *)
let fill_latency t (latency : Latency.t) ~bw_factor ~into =
  let nodes = Array.length t.last_controller_util in
  let max_hops = Array.length latency.mem_base_cycles - 1 in
  let quadratic = latency.contention_exponent = 2.0 in
  for src = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      let sat = ref t.last_controller_util.(dst) in
      let route = Topology.route t.topo src dst in
      for i = 0 to Array.length route - 1 do
        let u = t.last_link_util.(route.(i)) in
        if u > !sat then sat := u
      done;
      let sat = !sat +. (1.0 -. bw_factor.(dst)) in
      let hops = min (Topology.distance t.topo src dst) max_hops in
      assert (hops >= 0);
      let s = Float.max 0.0 (Float.min 1.0 sat) in
      let contended = if quadratic then s *. s else s ** latency.contention_exponent in
      into.((src * nodes) + dst) <-
        latency.mem_base_cycles.(hops) +. (latency.mem_contended_delta.(hops) *. contended)
    done
  done

let raw_link_reading ~utilisation =
  let u = Float.max 0.0 (Float.min 1.0 utilisation) in
  0.5 +. (0.3 *. u)

let normalise_link_reading ~raw =
  let r = Float.max 0.5 (Float.min 0.8 raw) in
  (r -. 0.5) /. 0.3

let interconnect_load t =
  if t.epochs = 0 then 0.0
  else begin
    let avg = t.sums.sum_max_link_util /. float_of_int t.epochs in
    normalise_link_reading ~raw:(raw_link_reading ~utilisation:avg)
  end
