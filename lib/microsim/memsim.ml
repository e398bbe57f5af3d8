type params = {
  cpu_overhead_ns : float;
  dram_service_ns : float;  (* access latency seen by the request *)
  dram_occupancy_ns : float;  (* bank busy time (tRC) per request *)
  dram_banks : int;
  hop_wire_ns : float;
  flit_bytes : float;
}

(* Calibration (AMD48, 2.2 GHz: 1 cycle = 0.4545 ns):
   - idle local latency = cpu_overhead + dram_service = 70.9 ns
     (Table 3's 156 cycles);
   - each hop adds two wire traversals plus the 64 B response
     serialization on the link;
   - 48 window-1 agents saturate the bank pool: response converges to
     agents * dram_service / banks = 48 * 52 / 8 = 312 ns, Table 3's
     697-cycle contended column. *)
let default =
  {
    cpu_overhead_ns = 18.9;
    dram_service_ns = 52.0;
    dram_occupancy_ns = 59.0;
    dram_banks = 8;
    hop_wire_ns = 18.0;
    flit_bytes = 64.0;
  }

type result = {
  requests : int;
  mean_latency_ns : float;
  p95_latency_ns : float;
  throughput_gib_s : float;
  duration_s : float;
  per_agent_mean_ns : float array;
}

(* FIFO resource: a request arriving at [t] starts service no earlier
   than the resource's next-free instant; reserving advances it.
   [occupancy] (>= [service]) keeps the resource busy longer than the
   request itself takes — a DRAM bank's cycle time exceeds its access
   latency. *)
type resource = { mutable next_free : float }

let reserve ?occupancy resource ~at ~service =
  let start = Float.max at resource.next_free in
  resource.next_free <- start +. Option.value occupancy ~default:service;
  start +. service

type agent = {
  src : int;
  dst : int;
  mutable left : int;  (* requests still to issue *)
  mutable inflight : int;
}

type event = Issue of int  (* agent index *)

let run ?(params = default) ?(seed = 1) ~topo ~agents ~window ~requests_per_agent () =
  if window <= 0 then invalid_arg "Memsim.run: window must be positive";
  if requests_per_agent <= 0 then invalid_arg "Memsim.run: empty request budget";
  let rng = Sim.Rng.create ~seed in
  let links = Numa.Topology.links topo in
  let link_res = Array.map (fun _ -> { next_free = 0.0 }) links in
  let banks =
    Array.init (Numa.Topology.node_count topo) (fun _ ->
        Array.init params.dram_banks (fun _ -> { next_free = 0.0 }))
  in
  let agents =
    Array.of_list
      (List.map (fun (src, dst) -> { src; dst; left = requests_per_agent; inflight = 0 }) agents)
  in
  let q : event Sim.Eventq.t = Sim.Eventq.create () in
  let latencies = ref [] in
  let agent_sum = Array.make (Array.length agents) 0.0 in
  let agent_count = Array.make (Array.length agents) 0 in
  let n_requests = ref 0 in
  let total_bytes = ref 0.0 in
  let last_completion = ref 0.0 in
  (* Serialization time of one cache line on a link. *)
  let ser (l : Numa.Topology.link) =
    params.flit_bytes /. (l.Numa.Topology.gib_per_s *. (1024.0 ** 3.0)) *. 1e9
  in
  (* Walk one request through the system, reserving each FIFO stage in
     event order; returns the completion time (ns). *)
  let service agent ~at =
    let t = ref (at +. params.cpu_overhead_ns) in
    (* request to the controller: small command, wire delay only *)
    for _ = 1 to Array.length (Numa.Topology.route topo agent.src agent.dst) do
      t := !t +. params.hop_wire_ns
    done;
    (* memory controller: pick the earliest-free bank *)
    let pool = banks.(agent.dst) in
    let best = ref pool.(0) in
    Array.iter (fun bank -> if bank.next_free < !best.next_free then best := bank) pool;
    t := reserve !best ~at:!t ~service:params.dram_service_ns
           ~occupancy:params.dram_occupancy_ns;
    (* response: the cache line serializes on every link of the way
       back and pays the wire delay per hop *)
    let back = Numa.Topology.route topo agent.dst agent.src in
    for i = 0 to Array.length back - 1 do
      let id = back.(i) in
      t := reserve link_res.(id) ~at:!t ~service:(ser links.(id));
      t := !t +. params.hop_wire_ns
    done;
    !t
  in
  let issue i ~at =
    let agent = agents.(i) in
    if agent.left > 0 then begin
      agent.left <- agent.left - 1;
      agent.inflight <- agent.inflight + 1;
      let done_at = service agent ~at in
      latencies := (done_at -. at) :: !latencies;
      agent_sum.(i) <- agent_sum.(i) +. (done_at -. at);
      agent_count.(i) <- agent_count.(i) + 1;
      incr n_requests;
      total_bytes := !total_bytes +. params.flit_bytes;
      if done_at > !last_completion then last_completion := done_at;
      Sim.Eventq.schedule q ~at:done_at (Issue i)
    end
  in
  (* Prime each agent's window with a small deterministic stagger so
     simultaneous starts do not line up artificially. *)
  Array.iteri
    (fun i _ ->
      for _ = 1 to window do
        Sim.Eventq.schedule q ~at:(Sim.Rng.float rng 5.0) (Issue i)
      done)
    agents;
  let rec drain () =
    match Sim.Eventq.next q with
    | Some (at, Issue i) ->
        agents.(i).inflight <- agents.(i).inflight - 1;
        issue i ~at;
        drain ()
    | None -> ()
  in
  (* The priming events carry inflight 0; normalize by pre-counting. *)
  Array.iter (fun a -> a.inflight <- window) agents;
  drain ();
  let samples = Array.of_list !latencies in
  let duration_s = !last_completion *. 1e-9 in
  {
    requests = !n_requests;
    mean_latency_ns = Sim.Stats.mean samples;
    p95_latency_ns = (if Array.length samples = 0 then 0.0 else Sim.Stats.percentile samples 95.0);
    throughput_gib_s =
      (if duration_s > 0.0 then !total_bytes /. (1024.0 ** 3.0) /. duration_s else 0.0);
    duration_s;
    per_agent_mean_ns =
      Array.mapi
        (fun i sum -> if agent_count.(i) = 0 then 0.0 else sum /. float_of_int agent_count.(i))
        agent_sum;
  }

(* Sources for the contended probes: agents spread round-robin over all
   nodes (6 per node fills the machine), like 48 threads on AMD48. *)
let spread_agents topo ~threads ~dst =
  List.init threads (fun i -> (i mod Numa.Topology.node_count topo, dst))

let latency_probe ?(params = default) ~topo ~threads ~hops () =
  if hops < 0 || hops > Numa.Topology.diameter topo then invalid_arg "Memsim.latency_probe: hops";
  let dst = 0 in
  if threads = 1 then begin
    (* idle probe: one agent at the requested distance *)
    let src =
      let rec find n =
        if n >= Numa.Topology.node_count topo then invalid_arg "no node at that distance"
        else if Numa.Topology.distance topo n dst = hops then n
        else find (n + 1)
      in
      find 0
    in
    run ~params ~topo ~agents:[ (src, dst) ] ~window:1 ~requests_per_agent:2000 ()
  end
  else begin
    (* contended probe: [threads] agents spread over the machine, all
       hammering [dst]; report the latency of the agents sitting at the
       requested hop distance. *)
    let agents = spread_agents topo ~threads ~dst in
    let all = run ~params ~topo ~agents ~window:1 ~requests_per_agent:2000 () in
    let sum = ref 0.0 and count = ref 0 in
    List.iteri
      (fun i (src, dst) ->
        if Numa.Topology.distance topo src dst = hops then begin
          sum := !sum +. all.per_agent_mean_ns.(i);
          incr count
        end)
      agents;
    if !count = 0 then invalid_arg "Memsim.latency_probe: no agent at that distance";
    { all with mean_latency_ns = !sum /. float_of_int !count }
  end

let bandwidth_probe ?(params = default) ~topo ~threads ~window () =
  let agents = List.init threads (fun _ -> (0, 0)) in
  run ~params ~topo ~agents ~window ~requests_per_agent:4000 ()

let random_access_efficiency ?(params = default) ~topo () =
  let result = bandwidth_probe ~params ~topo ~threads:6 ~window:8 () in
  result.throughput_gib_s /. Numa.Topology.controller_gib_per_s topo
