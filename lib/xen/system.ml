type fault_hooks = {
  mutable migrate_alloc_fails : unit -> bool;
  mutable hypercall_transient : unit -> bool;
  mutable iommu_fault : Memory.Page.pfn -> bool;
  mutable batch_lost : int -> bool;
}

let no_faults () =
  {
    migrate_alloc_fails = (fun () -> false);
    hypercall_transient = (fun () -> false);
    iommu_fault = (fun _ -> false);
    batch_lost = (fun _ -> false);
  }

type t = {
  topo : Numa.Topology.t;
  machine : Memory.Machine.t;
  costs : Costs.t;
  mutable domains : Domain.t list;
  pcpu_load : int array;
  mutable next_id : int;
  faults : fault_hooks;
  mutable obs : Obs.Stream.t option;
}

let create ?(page_scale = 1) ?(costs = Costs.default) topo =
  {
    topo;
    machine = Memory.Machine.create ~page_scale topo;
    costs;
    domains = [];
    pcpu_load = Array.make (Numa.Topology.cpu_count topo) 0;
    next_id = 0;
    faults = no_faults ();
    obs = None;
  }

let set_obs t stream = t.obs <- stream

let mem_frames_of_bytes t bytes =
  let fb = Memory.Machine.frame_bytes t.machine in
  (bytes + fb - 1) / fb

(* Load of a node = vCPUs already pinned to its pCPUs. *)
let node_load t node =
  Array.fold_left
    (fun acc cpu -> acc + t.pcpu_load.(cpu))
    0
    (Numa.Topology.cpu_array_of_node t.topo node)

let select_home_nodes t ~vcpus ~mem_bytes =
  let cpn = Numa.Topology.cpus_per_node t.topo in
  let by_cpu = (vcpus + cpn - 1) / cpn in
  let mpn = Numa.Topology.mem_per_node t.topo in
  let by_mem = (mem_bytes + mpn - 1) / mpn in
  let needed = max 1 (max by_cpu by_mem) in
  if needed > Numa.Topology.node_count t.topo then
    invalid_arg "System.create_domain: domain does not fit the machine";
  let nodes = Array.init (Numa.Topology.node_count t.topo) (fun n -> n) in
  Array.sort
    (fun a b ->
      let la = node_load t a and lb = node_load t b in
      if la <> lb then compare la lb else compare a b)
    nodes;
  let home = Array.sub nodes 0 needed in
  Array.sort compare home;
  home

(* Pin [vcpus] across the home nodes' pCPUs, least-loaded first with
   deterministic tie-break, so a first domain gets one pCPU per vCPU
   and consolidated domains stack evenly. *)
let pin_vcpus t ~vcpus ~home_nodes =
  let candidates =
    Array.concat
      (List.map (fun n -> Numa.Topology.cpu_array_of_node t.topo n) (Array.to_list home_nodes))
  in
  let pin = Array.make vcpus 0 in
  for v = 0 to vcpus - 1 do
    let best = ref candidates.(0) in
    Array.iter (fun c -> if t.pcpu_load.(c) < t.pcpu_load.(!best) then best := c) candidates;
    pin.(v) <- !best;
    t.pcpu_load.(!best) <- t.pcpu_load.(!best) + 1
  done;
  pin

let create_domain t ~name ~kind ~vcpus ~mem_bytes ?home_nodes () =
  if vcpus <= 0 then invalid_arg "System.create_domain: vcpus must be positive";
  if mem_bytes <= 0 then invalid_arg "System.create_domain: mem_bytes must be positive";
  let home_nodes =
    match home_nodes with
    | Some nodes ->
        Array.iter
          (fun n ->
            if n < 0 || n >= Numa.Topology.node_count t.topo then
              invalid_arg "System.create_domain: bad home node")
          nodes;
        nodes
    | None -> select_home_nodes t ~vcpus ~mem_bytes
  in
  let vcpu_pin = pin_vcpus t ~vcpus ~home_nodes in
  let mem_frames = mem_frames_of_bytes t mem_bytes in
  let domain =
    {
      Domain.id = t.next_id;
      name;
      kind;
      vcpus;
      mem_frames;
      (* One simulated frame stands for page_scale real 4 KiB frames, so
         a 2 MiB superpage extent shrinks accordingly (and degenerates
         to 1 — superpages off — once the scale reaches 512). *)
      p2m =
        P2m.create
          ~sp_frames:
            (max 1 (Memory.Page.frames_per_2m / Memory.Machine.page_scale t.machine))
          ~frames:mem_frames ();
      home_nodes;
      vcpu_pin;
      account = Domain.fresh_account ();
      fault_handler = None;
      policy_name = "none";
    }
  in
  t.next_id <- t.next_id + 1;
  t.domains <- domain :: t.domains;
  domain

let destroy_domain t domain =
  P2m.iter_mapped domain.Domain.p2m (fun pfn _ ->
      match P2m.invalidate domain.Domain.p2m pfn with
      | Some mfn -> Memory.Machine.free t.machine ~mfn ~order:0
      | None -> ());
  Array.iter (fun pcpu -> t.pcpu_load.(pcpu) <- t.pcpu_load.(pcpu) - 1) domain.Domain.vcpu_pin;
  t.domains <- List.filter (fun d -> d.Domain.id <> domain.Domain.id) t.domains
