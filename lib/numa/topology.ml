type node = int
type cpu = int

type link = { link_id : int; src : node; dst : node; gib_per_s : float }

type t = {
  nodes : int;
  cpus_per_node : int;
  mem_per_node : int;
  controller_gib_per_s : float;
  links : link array;
  (* adjacency.(n) lists (neighbour, link_id) sorted by neighbour. *)
  adjacency : (node * int) list array;
  (* routes.(src * nodes + dst) holds the link ids of the directed
     path, in order; shared, callers must not mutate. *)
  routes : int array array;
  distances : int array;
  (* node_cpus.(n) is the precomputed CPU id range of node n; shared,
     callers must not mutate. *)
  node_cpus : cpu array array;
  (* node_mask.(n) = '\001' while node n may be chosen as a placement
     destination.  Dynamic RAS state: node failure clears the bit and
     every policy consults it before picking a node.  Each run builds
     its own topology, so mutating the mask never crosses runs. *)
  node_mask : Bytes.t;
}

let node_count t = t.nodes
let cpu_count t = t.nodes * t.cpus_per_node
let cpus_per_node t = t.cpus_per_node
let mem_per_node t = t.mem_per_node
let total_mem t = t.nodes * t.mem_per_node
let controller_gib_per_s t = t.controller_gib_per_s
let links t = t.links

let node_of_cpu t c =
  assert (c >= 0 && c < cpu_count t);
  c / t.cpus_per_node

let cpu_array_of_node t n =
  assert (n >= 0 && n < t.nodes);
  t.node_cpus.(n)

let neighbours_of adjacency n = List.map fst adjacency.(n)

(* Deterministic BFS from [src]: visits neighbours in increasing node
   order, which emulates a static routing table.  Returns predecessor
   link for each reached node. *)
let bfs adjacency nodes src =
  let pred = Array.make nodes (-1) in
  let dist = Array.make nodes max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, link_id) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          pred.(v) <- link_id;
          Queue.add v queue
        end)
      adjacency.(u)
  done;
  (pred, dist)

let create ~nodes ~cpus_per_node ~mem_per_node ~controller_gib_per_s ~links:link_spec =
  if nodes <= 0 then invalid_arg "Topology.create: nodes must be positive";
  if cpus_per_node <= 0 then invalid_arg "Topology.create: cpus_per_node must be positive";
  let directed =
    List.concat_map
      (fun (a, b, gib) ->
        if a < 0 || a >= nodes || b < 0 || b >= nodes || a = b then
          invalid_arg "Topology.create: bad link endpoint";
        if gib <= 0.0 then invalid_arg "Topology.create: bad link bandwidth";
        [ (a, b, gib); (b, a, gib) ])
      link_spec
  in
  let links =
    Array.of_list
      (List.mapi (fun link_id (src, dst, gib_per_s) -> { link_id; src; dst; gib_per_s }) directed)
  in
  let adjacency = Array.make nodes [] in
  Array.iter (fun l -> adjacency.(l.src) <- (l.dst, l.link_id) :: adjacency.(l.src)) links;
  Array.iteri
    (fun i l -> adjacency.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
    adjacency;
  let routes = Array.make (nodes * nodes) [||] in
  let distances = Array.make (nodes * nodes) 0 in
  for src = 0 to nodes - 1 do
    let pred, dist = bfs adjacency nodes src in
    for dst = 0 to nodes - 1 do
      if dst <> src then begin
        if dist.(dst) = max_int then invalid_arg "Topology.create: disconnected link graph";
        let rec path acc v =
          if v = src then acc
          else begin
            let l = links.(pred.(v)) in
            path (l.link_id :: acc) l.src
          end
        in
        routes.((src * nodes) + dst) <- Array.of_list (path [] dst);
        distances.((src * nodes) + dst) <- dist.(dst)
      end
    done
  done;
  let node_cpus =
    Array.init nodes (fun n -> Array.init cpus_per_node (fun i -> (n * cpus_per_node) + i))
  in
  { nodes; cpus_per_node; mem_per_node; controller_gib_per_s; links; adjacency; routes;
    distances; node_cpus; node_mask = Bytes.make nodes '\001' }

let distance t src dst =
  assert (src >= 0 && src < t.nodes && dst >= 0 && dst < t.nodes);
  t.distances.((src * t.nodes) + dst)

let diameter t =
  Array.fold_left max 0 t.distances

let route t src dst =
  assert (src >= 0 && src < t.nodes && dst >= 0 && dst < t.nodes);
  t.routes.((src * t.nodes) + dst)

let neighbours t n =
  assert (n >= 0 && n < t.nodes);
  neighbours_of t.adjacency n

let node_online t n =
  assert (n >= 0 && n < t.nodes);
  Bytes.get t.node_mask n = '\001'

let set_node_online t n online =
  assert (n >= 0 && n < t.nodes);
  Bytes.set t.node_mask n (if online then '\001' else '\000')

let pp fmt t =
  Format.fprintf fmt "@[<v>%d nodes x %d CPUs, %a per node, controller %.1f GiB/s@,"
    t.nodes t.cpus_per_node Sim.Units.pp_bytes t.mem_per_node t.controller_gib_per_s;
  Array.iter
    (fun l ->
      if l.src < l.dst then
        Format.fprintf fmt "link %d<->%d: %.1f GiB/s@," l.src l.dst l.gib_per_s)
    t.links;
  Format.fprintf fmt "diameter %d hops@]" (diameter t)
