(* Tests for the numa library: topology, latency, counters, amd48. *)

let check_float = Alcotest.(check (float 1e-9))

let line_topology () =
  (* 0 - 1 - 2 - 3 chain. *)
  Numa.Topology.create ~nodes:4 ~cpus_per_node:2 ~mem_per_node:(1 lsl 30)
    ~controller_gib_per_s:10.0
    ~links:[ (0, 1, 4.0); (1, 2, 4.0); (2, 3, 4.0) ]

(* ----------------------------- topology --------------------------- *)

let test_topology_counts () =
  let t = line_topology () in
  Alcotest.(check int) "nodes" 4 (Numa.Topology.node_count t);
  Alcotest.(check int) "cpus" 8 (Numa.Topology.cpu_count t);
  Alcotest.(check int) "cpus/node" 2 (Numa.Topology.cpus_per_node t);
  Alcotest.(check int) "total mem" (4 * (1 lsl 30)) (Numa.Topology.total_mem t)

let test_topology_cpu_mapping () =
  let t = line_topology () in
  Alcotest.(check int) "cpu 0 on node 0" 0 (Numa.Topology.node_of_cpu t 0);
  Alcotest.(check int) "cpu 5 on node 2" 2 (Numa.Topology.node_of_cpu t 5);
  Alcotest.(check (list int)) "cpus of node 1" [ 2; 3 ]
    (Array.to_list (Numa.Topology.cpu_array_of_node t 1))

let test_topology_distance () =
  let t = line_topology () in
  Alcotest.(check int) "self" 0 (Numa.Topology.distance t 2 2);
  Alcotest.(check int) "adjacent" 1 (Numa.Topology.distance t 0 1);
  Alcotest.(check int) "far" 3 (Numa.Topology.distance t 0 3);
  Alcotest.(check int) "diameter" 3 (Numa.Topology.diameter t)

let test_topology_route () =
  let t = line_topology () in
  let route = Numa.Topology.route t 0 3 in
  Alcotest.(check int) "3 links" 3 (Array.length route);
  (* The route is connected and directed from 0 to 3. *)
  let links = Numa.Topology.links t in
  let dst =
    Array.fold_left
      (fun at id ->
        let l = links.(id) in
        if l.Numa.Topology.src = at then l.Numa.Topology.dst else -1)
      0 route
  in
  Alcotest.(check int) "connected path" 3 dst;
  Alcotest.(check (array int)) "empty self route" [||] (Numa.Topology.route t 1 1)

(* An independent oracle for the routing table: breadth-first search
   from [src] over the directed links, visiting neighbours in increasing
   node order, then the path to [dst] read back from the predecessor
   links. *)
let bfs_route t src dst =
  let nodes = Numa.Topology.node_count t in
  let links = Numa.Topology.links t in
  let pred = Array.make nodes (-1) in
  let seen = Array.make nodes false in
  seen.(src) <- true;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let out =
      Array.to_list links
      |> List.filter (fun (l : Numa.Topology.link) -> l.Numa.Topology.src = u)
      |> List.map (fun (l : Numa.Topology.link) -> (l.Numa.Topology.dst, l.Numa.Topology.link_id))
      |> List.sort compare
    in
    List.iter
      (fun (v, id) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          pred.(v) <- id;
          Queue.add v queue
        end)
      out
  done;
  let rec back acc v =
    if v = src then acc else back (pred.(v) :: acc) links.(pred.(v)).Numa.Topology.src
  in
  back [] dst

let route_topologies () =
  [
    ("amd48", Numa.Amd48.topology ());
    ("intel32", Numa.Machine_desc.intel32.Numa.Machine_desc.topology ());
    ("chain", line_topology ());
  ]

let test_topology_routes_match_bfs () =
  List.iter
    (fun (name, t) ->
      let nodes = Numa.Topology.node_count t in
      for src = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          Alcotest.(check (list int))
            (Printf.sprintf "%s route %d->%d" name src dst)
            (bfs_route t src dst)
            (Array.to_list (Numa.Topology.route t src dst))
        done
      done)
    (route_topologies ())

let test_topology_neighbours () =
  let t = line_topology () in
  Alcotest.(check (list int)) "middle node" [ 0; 2 ] (Numa.Topology.neighbours t 1)

let test_topology_rejects_disconnected () =
  Alcotest.check_raises "disconnected graph"
    (Invalid_argument "Topology.create: disconnected link graph") (fun () ->
      ignore
        (Numa.Topology.create ~nodes:3 ~cpus_per_node:1 ~mem_per_node:1024
           ~controller_gib_per_s:1.0 ~links:[ (0, 1, 1.0) ]))

let test_topology_rejects_bad_link () =
  Alcotest.check_raises "self link" (Invalid_argument "Topology.create: bad link endpoint")
    (fun () ->
      ignore
        (Numa.Topology.create ~nodes:2 ~cpus_per_node:1 ~mem_per_node:1024
           ~controller_gib_per_s:1.0
           ~links:[ (0, 0, 1.0) ]))

(* ------------------------------ amd48 ----------------------------- *)

let test_amd48_shape () =
  let t = Numa.Amd48.topology () in
  Alcotest.(check int) "8 nodes" 8 (Numa.Topology.node_count t);
  Alcotest.(check int) "48 cpus" 48 (Numa.Topology.cpu_count t);
  Alcotest.(check int) "128 GiB" (128 * 1024 * 1024 * 1024) (Numa.Topology.total_mem t);
  Alcotest.(check int) "diameter 2 (Section 5.1)" 2 (Numa.Topology.diameter t)

let test_amd48_link_bandwidths () =
  let t = Numa.Amd48.topology () in
  let max_bw =
    Array.fold_left (fun acc (l : Numa.Topology.link) -> Float.max acc l.Numa.Topology.gib_per_s)
      0.0 (Numa.Topology.links t)
  in
  check_float "max 6 GiB/s" 6.0 max_bw

let test_amd48_every_pair_reachable () =
  let t = Numa.Amd48.topology () in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let d = Numa.Topology.distance t a b in
      if a = b then Alcotest.(check int) "self 0" 0 d
      else if d < 1 || d > 2 then Alcotest.failf "distance %d-%d = %d" a b d
    done
  done

(* ----------------------------- latency ---------------------------- *)

let test_latency_table3_idle () =
  let lat = Numa.Amd48.latency in
  check_float "local" 156.0 (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:0.0);
  check_float "1 hop" 276.0 (Numa.Latency.mem_cycles lat ~hops:1 ~saturation:0.0);
  check_float "2 hops" 383.0 (Numa.Latency.mem_cycles lat ~hops:2 ~saturation:0.0)

let test_latency_table3_contended () =
  let lat = Numa.Amd48.latency in
  check_float "local" 697.0 (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:1.0);
  check_float "1 hop" 740.0 (Numa.Latency.mem_cycles lat ~hops:1 ~saturation:1.0);
  check_float "2 hops" 863.0 (Numa.Latency.mem_cycles lat ~hops:2 ~saturation:1.0)

let test_latency_caches () =
  let lat = Numa.Amd48.latency in
  check_float "L1" 5.0 (Numa.Latency.cache_cycles lat Numa.Latency.L1);
  check_float "L2" 16.0 (Numa.Latency.cache_cycles lat Numa.Latency.L2);
  check_float "L3" 48.0 (Numa.Latency.cache_cycles lat Numa.Latency.L3)

let test_latency_clamps () =
  let lat = Numa.Amd48.latency in
  check_float "saturation above 1 clamps" 697.0
    (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:3.0);
  check_float "hops beyond max clamp" 383.0
    (Numa.Latency.mem_cycles lat ~hops:9 ~saturation:0.0)

let prop_latency_monotone_in_saturation =
  QCheck.Test.make ~name:"latency monotone in saturation" ~count:300
    QCheck.(triple (int_range 0 2) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (hops, s1, s2) ->
      let lat = Numa.Amd48.latency in
      let lo = Float.min s1 s2 and hi = Float.max s1 s2 in
      Numa.Latency.mem_cycles lat ~hops ~saturation:lo
      <= Numa.Latency.mem_cycles lat ~hops ~saturation:hi +. 1e-9)

let prop_latency_monotone_in_hops =
  QCheck.Test.make ~name:"idle latency monotone in hops" ~count:100
    QCheck.(float_range 0.0 1.0)
    (fun _ ->
      let lat = Numa.Amd48.latency in
      let l h = Numa.Latency.mem_cycles lat ~hops:h ~saturation:0.0 in
      l 0 < l 1 && l 1 < l 2)

(* ----------------------------- counters --------------------------- *)

let test_counters_local_remote () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:0 ~count:10.0 ~bytes_per_access:64.0;
  Numa.Counters.record_accesses c ~src:0 ~dst:3 ~count:5.0 ~bytes_per_access:64.0;
  check_float "local" 10.0 (Numa.Counters.local_accesses c);
  check_float "remote" 5.0 (Numa.Counters.remote_accesses c);
  check_float "node 0 accesses" 10.0 (Numa.Counters.node_accesses c).(0);
  check_float "node 3 accesses" 5.0 (Numa.Counters.node_accesses c).(3)

let test_counters_remote_charges_route_links () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:3 ~count:1.0 ~bytes_per_access:64.0;
  let route = Numa.Topology.route t 0 3 in
  let bytes = Numa.Counters.link_bytes c in
  Array.iter (fun id -> check_float "link charged" 64.0 bytes.(id)) route;
  let total = Array.fold_left ( +. ) 0.0 bytes in
  check_float "only route links charged" (64.0 *. float_of_int (Array.length route)) total

let test_counters_imbalance () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  for dst = 0 to 7 do
    Numa.Counters.record_accesses c ~src:0 ~dst ~count:10.0 ~bytes_per_access:64.0
  done;
  check_float "balanced" 0.0 (Numa.Counters.imbalance c);
  Numa.Counters.record_accesses c ~src:1 ~dst:0 ~count:800.0 ~bytes_per_access:64.0;
  Alcotest.(check bool) "imbalanced now" true (Numa.Counters.imbalance c > 1.0)

let test_counters_zero_access_epoch () =
  (* Regression: an epoch with no recorded accesses must not divide by
     zero — imbalance reads 0 and closing the epoch is harmless. *)
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  check_float "imbalance with no accesses" 0.0 (Numa.Counters.imbalance c);
  Numa.Counters.end_epoch c ~duration:1.0;
  check_float "imbalance after empty epoch" 0.0 (Numa.Counters.imbalance c);
  check_float "interconnect load after empty epoch" 0.0 (Numa.Counters.interconnect_load c);
  let finite x = match Float.classify_float x with FP_nan | FP_infinite -> false | _ -> true in
  Alcotest.(check bool) "values finite" true
    (finite (Numa.Counters.imbalance c) && finite (Numa.Counters.interconnect_load c))

let test_counters_epoch_utilisation () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  (* 13 GiB/s controller: half that in one second is 50 % utilisation. *)
  let bytes = 6.5 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:2 ~dst:2 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  let util = Numa.Counters.last_controller_utilisation c in
  Alcotest.(check (float 0.01)) "node 2 at 50%" 0.5 util.(2);
  Alcotest.(check (float 0.01)) "node 0 idle" 0.0 util.(0);
  Alcotest.(check int) "one epoch" 1 (Numa.Counters.epoch_count c)

let test_counters_epoch_resets_bytes () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:0 ~count:1e6 ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  let util = Numa.Counters.last_controller_utilisation c in
  check_float "second epoch idle" 0.0 util.(0);
  (* Cumulative access counts survive epochs. *)
  check_float "cumulative kept" 1e6 (Numa.Counters.node_accesses c).(0)

let test_counters_raw_amplitude () =
  (* Footnote 3: the raw reading idles at 50 % and saturates at 80 %. *)
  check_float "idle" 0.5 (Numa.Counters.raw_link_reading ~utilisation:0.0);
  check_float "saturated" 0.8 (Numa.Counters.raw_link_reading ~utilisation:1.0);
  check_float "midpoint" 0.65 (Numa.Counters.raw_link_reading ~utilisation:0.5);
  check_float "roundtrip" 0.5
    (Numa.Counters.normalise_link_reading ~raw:(Numa.Counters.raw_link_reading ~utilisation:0.5));
  check_float "clamps low" 0.0 (Numa.Counters.normalise_link_reading ~raw:0.2)

(* [Counters.fill_latency] with AMD48's latency over healthy nodes, as a
   fresh array. *)
let latency_memo c =
  let nodes = Array.length (Numa.Counters.last_controller_utilisation c) in
  let into = Array.make (nodes * nodes) 0.0 in
  Numa.Counters.fill_latency c Numa.Amd48.latency ~bw_factor:(Array.make nodes 1.0) ~into;
  into

let test_counters_max_route_saturation () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  (* Saturate node 5's controller. *)
  let bytes = 13.0 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:5 ~dst:5 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  let memo = latency_memo c in
  let cycles ~src ~dst ~saturation =
    Numa.Latency.mem_cycles Numa.Amd48.latency ~hops:(Numa.Topology.distance t src dst) ~saturation
  in
  Alcotest.(check (float 0.01)) "route into 5 saturated"
    (cycles ~src:0 ~dst:5 ~saturation:1.0) memo.((0 * 8) + 5);
  Alcotest.(check (float 0.01)) "unrelated route idle"
    (cycles ~src:1 ~dst:2 ~saturation:0.0) memo.((1 * 8) + 2)

let test_counters_interconnect_load () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  check_float "no epoch yet" 0.0 (Numa.Counters.interconnect_load c);
  (* Saturate one link: 3 GiB/s for one second over link 0<->1 (6 GiB/s): 50 %. *)
  let bytes = 3.0 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:0 ~dst:1 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Alcotest.(check (float 0.01)) "50% on most loaded link" 0.5
    (Numa.Counters.interconnect_load c)

(* [record_row] against the per-cell loop it replaces: one
   [record_accesses] per positive cell, vCPU by vCPU, in node order.
   Random rows (with zero and negative cells, which both skip) over
   several epochs must leave every reading bitwise equal.  Cell counts
   reach tens of millions so that links and controllers saturate. *)
let prop_counters_record_row_differential =
  let topos = route_topologies () in
  let gen =
    QCheck.Gen.(
      let* ti = int_bound (List.length topos - 1) in
      let nodes = Numa.Topology.node_count (snd (List.nth topos ti)) in
      let cell =
        frequency
          [ (3, return 0.0); (1, float_range (-5.0) 0.0); (6, float_range 0.0 2e7) ]
      in
      let vcpu = pair (int_bound (nodes - 1)) (array_size (return nodes) cell) in
      let epoch = list_size (int_range 1 12) vcpu in
      map (fun epochs -> (ti, epochs)) (list_size (int_range 1 5) epoch))
  in
  QCheck.Test.make ~name:"record_row = per-cell record_accesses" ~count:200
    (QCheck.make gen)
    (fun (ti, epochs) ->
      let t = snd (List.nth topos ti) in
      let nodes = Numa.Topology.node_count t in
      let by_row = Numa.Counters.create t and by_cell = Numa.Counters.create t in
      let bits x = Int64.bits_of_float x in
      let same_array a b =
        Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b
      in
      let same () =
        let c f = (f by_row, f by_cell) in
        let eq_f (a, b) = bits a = bits b and eq_a (a, b) = same_array a b in
        eq_a (c Numa.Counters.node_accesses)
        && eq_a (c Numa.Counters.link_bytes)
        && eq_f (c Numa.Counters.local_accesses)
        && eq_f (c Numa.Counters.remote_accesses)
        && eq_f (c Numa.Counters.imbalance)
        && eq_a (c Numa.Counters.last_controller_utilisation)
        && eq_a (c Numa.Counters.last_link_utilisation)
        && eq_f (c Numa.Counters.interconnect_load)
        && eq_a (c latency_memo)
      in
      List.for_all
        (fun vcpus ->
          let row = Array.concat (List.map snd vcpus) in
          List.iteri
            (fun v (src, cells) ->
              Numa.Counters.record_row by_row ~src row ~base:(v * nodes) ~bytes_per_access:64.0;
              Array.iteri
                (fun dst count ->
                  if count > 0.0 then
                    Numa.Counters.record_accesses by_cell ~src ~dst ~count ~bytes_per_access:64.0)
                cells)
            vcpus;
          Numa.Counters.end_epoch by_row ~duration:0.1;
          Numa.Counters.end_epoch by_cell ~duration:0.1;
          same ())
        epochs)

(* [fill_latency] against its definition: per pair, [Latency.mem_cycles]
   at the hop distance and the route-max saturation (destination
   controller, then each route link in order) plus the lost bandwidth
   share, bit for bit.  Random traffic saturates some resources and
   leaves others idle; bandwidth factors include 0 and 1; the chain's
   three-hop pairs exceed AMD48's latency table, and an exponent other
   than 2 takes the [( ** )] path. *)
let prop_counters_fill_latency_differential =
  let topos = [ Numa.Amd48.topology (); line_topology () ] in
  let gen =
    QCheck.Gen.(
      let* ti = int_bound 1 in
      let nodes = Numa.Topology.node_count (List.nth topos ti) in
      let* traffic =
        list_size (int_range 0 30)
          (triple (int_bound (nodes - 1)) (int_bound (nodes - 1)) (float_range 0.0 3e7))
      in
      let* bw =
        array_size (return nodes)
          (frequency [ (3, return 1.0); (1, return 0.0); (3, float_range 0.0 1.0) ])
      in
      let* exponent = oneofl [ 2.0; 1.5 ] in
      return (ti, traffic, bw, exponent))
  in
  QCheck.Test.make ~name:"fill_latency = per-pair mem_cycles" ~count:300 (QCheck.make gen)
    (fun (ti, traffic, bw, exponent) ->
      let t = List.nth topos ti in
      let nodes = Numa.Topology.node_count t in
      let latency =
        Numa.Latency.create ~contention_exponent:exponent
          ~mem_base_cycles:Numa.Amd48.latency.Numa.Latency.mem_base_cycles
          ~mem_contended_delta:Numa.Amd48.latency.Numa.Latency.mem_contended_delta ()
      in
      let c = Numa.Counters.create t in
      List.iter
        (fun (src, dst, count) ->
          Numa.Counters.record_accesses c ~src ~dst ~count ~bytes_per_access:64.0)
        traffic;
      Numa.Counters.end_epoch c ~duration:0.1;
      let controller = Numa.Counters.last_controller_utilisation c in
      let links = Numa.Counters.last_link_utilisation c in
      let into = Array.make (nodes * nodes) nan in
      Numa.Counters.fill_latency c latency ~bw_factor:bw ~into;
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              let sat =
                Array.fold_left
                  (fun sat l -> if links.(l) > sat then links.(l) else sat)
                  controller.(dst) (Numa.Topology.route t src dst)
              in
              let expected =
                Numa.Latency.mem_cycles latency ~hops:(Numa.Topology.distance t src dst)
                  ~saturation:(sat +. (1.0 -. bw.(dst)))
              in
              Int64.bits_of_float expected = Int64.bits_of_float into.((src * nodes) + dst))
            (List.init nodes Fun.id))
        (List.init nodes Fun.id))

(* The commit path allocates nothing: after a warm-up, recording 48
   vCPU rows on AMD48, closing the epoch and filling the latency memo
   leave the minor heap untouched. *)
let test_counters_commit_allocates_nothing () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  let nodes = Numa.Topology.node_count t and vcpus = 48 in
  let row =
    Array.init (vcpus * nodes) (fun i -> if i mod 3 = 0 then 0.0 else float_of_int (i * 997))
  in
  let bw_factor = Array.init nodes (fun n -> if n = 3 then 0.5 else 1.0) in
  let memo = Array.make (nodes * nodes) 0.0 in
  let epoch () =
    for v = 0 to vcpus - 1 do
      Numa.Counters.record_row c ~src:(v / 6) row ~base:(v * nodes) ~bytes_per_access:64.0
    done;
    Numa.Counters.end_epoch c ~duration:0.1;
    Numa.Counters.fill_latency c Numa.Amd48.latency ~bw_factor ~into:memo
  in
  for _ = 1 to 3 do
    epoch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    epoch ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then Alcotest.failf "record_row + end_epoch + fill_latency allocated %.0f minor words" words

let prop_counters_conservation =
  QCheck.Test.make ~name:"access counts are conserved" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (triple (int_range 0 7) (int_range 0 7) (float_range 1.0 1000.0)))
    (fun events ->
      let t = Numa.Amd48.topology () in
      let c = Numa.Counters.create t in
      List.iter
        (fun (src, dst, count) ->
          Numa.Counters.record_accesses c ~src ~dst ~count ~bytes_per_access:64.0)
        events;
      let total = Array.fold_left ( +. ) 0.0 (Numa.Counters.node_accesses c) in
      let expected = List.fold_left (fun acc (_, _, n) -> acc +. n) 0.0 events in
      Float.abs (total -. expected) < 1e-6 *. expected
      && Float.abs (Numa.Counters.local_accesses c +. Numa.Counters.remote_accesses c -. expected)
         < 1e-6 *. expected)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "numa.topology",
      [
        Alcotest.test_case "counts" `Quick test_topology_counts;
        Alcotest.test_case "cpu mapping" `Quick test_topology_cpu_mapping;
        Alcotest.test_case "distance" `Quick test_topology_distance;
        Alcotest.test_case "route" `Quick test_topology_route;
        Alcotest.test_case "routes match BFS" `Quick test_topology_routes_match_bfs;
        Alcotest.test_case "neighbours" `Quick test_topology_neighbours;
        Alcotest.test_case "rejects disconnected" `Quick test_topology_rejects_disconnected;
        Alcotest.test_case "rejects bad link" `Quick test_topology_rejects_bad_link;
      ] );
    ( "numa.amd48",
      [
        Alcotest.test_case "shape" `Quick test_amd48_shape;
        Alcotest.test_case "link bandwidths" `Quick test_amd48_link_bandwidths;
        Alcotest.test_case "pairs within 2 hops" `Quick test_amd48_every_pair_reachable;
      ] );
    ( "numa.latency",
      [
        Alcotest.test_case "Table 3 idle" `Quick test_latency_table3_idle;
        Alcotest.test_case "Table 3 contended" `Quick test_latency_table3_contended;
        Alcotest.test_case "caches" `Quick test_latency_caches;
        Alcotest.test_case "clamps" `Quick test_latency_clamps;
        qcheck prop_latency_monotone_in_saturation;
        qcheck prop_latency_monotone_in_hops;
      ] );
    ( "numa.counters",
      [
        Alcotest.test_case "local/remote" `Quick test_counters_local_remote;
        Alcotest.test_case "route links charged" `Quick test_counters_remote_charges_route_links;
        Alcotest.test_case "imbalance" `Quick test_counters_imbalance;
        Alcotest.test_case "zero-access epoch" `Quick test_counters_zero_access_epoch;
        Alcotest.test_case "epoch utilisation" `Quick test_counters_epoch_utilisation;
        Alcotest.test_case "epoch resets bytes" `Quick test_counters_epoch_resets_bytes;
        Alcotest.test_case "raw 50-80% amplitude" `Quick test_counters_raw_amplitude;
        Alcotest.test_case "max route saturation" `Quick test_counters_max_route_saturation;
        Alcotest.test_case "interconnect load" `Quick test_counters_interconnect_load;
        Alcotest.test_case "commit allocates nothing" `Quick test_counters_commit_allocates_nothing;
        qcheck prop_counters_conservation;
        qcheck prop_counters_record_row_differential;
        qcheck prop_counters_fill_latency_differential;
      ] );
  ]
