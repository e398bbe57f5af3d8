let access_bytes = 64.0

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)
(* ------------------------------------------------------------------ *)

(* One captured epoch for the fast-forward.  The latency feedback's
   fixed point is in general a period-2 limit cycle in the last ulp
   (the one-epoch-lag iteration overshoots and alternates between two
   neighbouring floats forever), so the runner keeps one capture per
   epoch parity and the replay alternates them; a true period-1 fixed
   point just makes the two captures equal. *)
type snapshot = {
  mutable epoch : int;  (* capture epoch; -1 = stale *)
  slots : Slots.t;
  mutable io : float;   (* disk DMA bytes of the captured epoch *)
}

(* A VM's scalar float accumulators, in an all-float record: OCaml
   stores its fields unboxed, so the per-vCPU updates of the epoch
   reductions allocate nothing. *)
type sums = {
  mutable shared_accesses_epoch : float;
  mutable burst_accesses_epoch : float;
  mutable sync_overhead : float;
}

(* One VM's run state.  The guest model, the churn model and the
   outcome ledger own their own state; the rest is the epoch pipeline's
   per-vCPU work and traffic. *)
type vm_state = {
  spec : Config.vm_spec;
  domain : Xen.Domain.t;
  manager : Policies.Manager.t;
  gm : Guest_model.t;
  churn : Churn.t;
  out : Outcome.t;
  remaining : float array;
  finish : float array;  (* -1 while running *)
  stalled : bool array;  (* this epoch's injected vCPU stalls *)
  thread_node : int array;
  slots : Slots.t;  (* this epoch's per-vCPU slots (live) *)
  thread_accesses : float array;  (* this epoch, per thread *)
  thread_shared : float array;  (* accesses into the shared region *)
  thread_burst : float array;   (* burst accesses, > 0 only for the source *)
  src_shared : float array;  (* accesses into the shared region per source node *)
  sums : sums;
  mutable burst_victim : int;
  mutable burst_source : int;
  mutable io_bytes_left : float;
  mutable tlb_cycles_per_instr : float;
      (* the boot-time flat value, except under P2M superpages or
         --pt-walk, where every full epoch reprices it *)
  work_per_thread : float;
  rng : Sim.Rng.t;
  (* Steady-state fast-forward bookkeeping.  [ff_armed] is set at the
     end of a full epoch that bitwise reproduced the same-parity
     capture from two epochs before; the witnesses below are taken at
     the top of every epoch (pass A) and compared at the bottom, so
     "nothing moved this epoch" is a check, not an assumption. *)
  mutable ff_armed : bool;
  mutable ff_p2m_version : int;  (* P2m.version at the top of the epoch *)
  mutable ff_migrations : int;   (* Guest_model.migrations at the top of the epoch *)
  mutable ff_finished : int;     (* finished-thread count at the top *)
  mutable ff_rotated : bool;     (* pass A rotated the hot front this epoch *)
  mutable ff_io : float;         (* disk DMA bytes transferred this epoch *)
  ff_snap : snapshot array;      (* the two parity captures (even, odd) *)
}

let vm_running st = Array.exists (fun f -> f < 0.0) st.finish

(* The VM's remaining work, summed in vCPU order by a loop, as
   [Array.fold_left ( +. )] would but without boxing the running sum. *)
let[@inline] work_left st =
  let left = ref 0.0 in
  for t = 0 to Array.length st.remaining - 1 do
    left := !left +. st.remaining.(t)
  done;
  !left

(* The share of the VM's work retired, in [0, 1]. *)
let progress st =
  let work = float_of_int st.spec.Config.threads *. st.work_per_thread in
  Float.max 0.0 (Float.min 1.0 (1.0 -. (work_left st /. work)))

let finished_threads st =
  Array.fold_left (fun n f -> if f >= 0.0 then n + 1 else n) 0 st.finish

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let carrefour_config (cfg : Config.t) machine =
  match cfg.Config.carrefour_config with
  | Some config -> config
  | None ->
      let frame_bytes = Memory.Machine.frame_bytes machine in
      let budget = max 16 (32 * 1024 * 1024 / frame_bytes) in
      {
        Policies.Carrefour.User_component.default_config with
        Policies.Carrefour.User_component.mc_threshold = 0.50;
        ic_threshold = 0.12;
        dominant_fraction = 0.75;
        min_accesses = 4.0;
        migration_budget = budget;
      }

let setup_vm (cfg : Config.t) system injector obs root_rng (spec : Config.vm_spec) =
  let app = spec.Config.app in
  let topo = system.Xen.System.topo in
  let nodes = Numa.Topology.node_count topo in
  let footprint_bytes = app.Workloads.App.footprint_mb * 1024 * 1024 in
  (* The paper's VMs own far more memory than any single application
     uses; two extra GiB ensure the (always fragmented) first and last
     guest GiB of the round-1G allocator are not where the application
     lives. *)
  let mem_bytes = footprint_bytes + (footprint_bytes / 4) + (2 * 1024 * 1024 * 1024) in
  let domain =
    Xen.System.create_domain system ~name:app.Workloads.App.name ~kind:Xen.Domain.DomU
      ~vcpus:spec.Config.threads ~mem_bytes ?home_nodes:spec.Config.home_nodes ()
  in
  let rng = Sim.Rng.split root_rng in
  let policy = spec.Config.policy in
  (* P2M superpages only exist under a hypervisor. *)
  let superpages = spec.Config.superpages && cfg.Config.mode <> Config.Linux in
  (* So do the priced page tables and their per-node mirrors. *)
  let pt_walk = spec.Config.pt_walk && cfg.Config.mode <> Config.Linux in
  let replicate_pt = spec.Config.replicate_pt && cfg.Config.mode <> Config.Linux in
  let boot =
    match cfg.Config.mode with
    | Config.Linux -> policy  (* Linux applies its policy directly. *)
    | Config.Xen | Config.Xen_plus -> Policies.Spec.boot ~superpages policy
  in
  let manager =
    Policies.Manager.attach
      ~carrefour_config:(carrefour_config cfg system.Xen.System.machine)
      ~superpages ~pt_walk ~replicate_pt system domain ~boot ~rng
  in
  (match Policies.Manager.switch manager policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner: " ^ msg));
  (* Policy installation and boot population are not application time. *)
  Xen.Domain.reset_ledger domain;
  let threads = spec.Config.threads in
  let gm = Guest_model.create system domain app ~threads in
  let churn =
    Churn.create cfg spec ~system ~injector ~obs ~manager ~domain ~pool:(Guest_model.pool gm)
  in
  let work =
    Workloads.App.instructions_per_thread app ~threads
      ~freq_hz:cfg.Config.machine.Numa.Machine_desc.freq_hz
  in
  {
    spec;
    domain;
    manager;
    gm;
    churn;
    out = Outcome.create cfg spec ~domain ~manager;
    remaining = Array.make threads work;
    finish = Array.make threads (-1.0);
    stalled = Array.make threads false;
    thread_node =
      Array.init threads (fun t -> Numa.Topology.node_of_cpu topo domain.Xen.Domain.vcpu_pin.(t));
    slots = Slots.make ~threads ~nodes ~lat:190.0;
    thread_accesses = Array.make threads 0.0;
    thread_shared = Array.make threads 0.0;
    thread_burst = Array.make threads 0.0;
    src_shared = Array.make nodes 0.0;
    sums = { shared_accesses_epoch = 0.0; burst_accesses_epoch = 0.0; sync_overhead = 0.0 };
    burst_victim = -1;
    burst_source = -1;
    io_bytes_left = Workloads.App.disk_bytes_total app;
    tlb_cycles_per_instr =
      Cost_model.walk_cpi cfg spec ~huge_fraction:(if spec.Config.huge_pages then 1.0 else 0.0);
    work_per_thread = work;
    rng;
    ff_armed = false;
    ff_p2m_version = -1;
    ff_migrations = 0;
    ff_finished = 0;
    ff_rotated = false;
    ff_io = 0.0;
    ff_snap =
      Array.init 2 (fun _ ->
          { epoch = -1; slots = Slots.make ~threads ~nodes ~lat:0.0; io = 0.0 });
  }

(* ------------------------------------------------------------------ *)
(* Epoch mechanics                                                     *)
(* ------------------------------------------------------------------ *)

(* Occupancy of each pCPU by still-running threads, for the CPU share
   of consolidated VMs.  dom0's vCPUs (pinned on node 0) count as
   occupants while they are busy shuttling pv I/O.  [occ] is a
   caller-owned buffer refilled every epoch. *)
let compute_occupancy ~occ states ~dom0 ~dom0_active =
  Array.fill occ 0 (Array.length occ) 0;
  List.iter
    (fun st ->
      Array.iteri
        (fun t f ->
          if f < 0.0 then begin
            let pcpu = st.domain.Xen.Domain.vcpu_pin.(t) in
            occ.(pcpu) <- occ.(pcpu) + 1
          end)
        st.finish)
    states;
  (match dom0 with
  | Some (d : Xen.Domain.t) ->
      for v = 0 to min dom0_active d.Xen.Domain.vcpus - 1 do
        occ.(d.Xen.Domain.vcpu_pin.(v)) <- occ.(d.Xen.Domain.vcpu_pin.(v)) + 1
      done
  | None -> ())

(* Distribute one thread's epoch accesses over destination nodes.
   Writes only vCPU [t]'s row and [t]-indexed slots; the shared-region
   and burst totals are folded in later by [reduce_epoch_traffic]. *)
let distribute_thread st t ~(shared : Guest_model.region) ~(privates : Guest_model.region array)
    ~accesses =
  let app = st.spec.Config.app in
  let nodes = Array.length st.src_shared in
  let dst = st.slots.dst in
  let base = t * nodes in
  let m = app.Workloads.App.master_bias in
  let burst_share = if st.burst_source = t then 0.5 else 0.0 in
  let acc_burst = burst_share *. accesses in
  let rest = accesses -. acc_burst in
  let acc_shared = m *. rest in
  let acc_own = rest -. acc_shared in
  let own_node = st.thread_node.(t) in
  (* Replicated read-only pages are served from the local copy. *)
  dst.(base + own_node) <-
    dst.(base + own_node)
    +. (acc_shared *. shared.replicated_local)
    +. (acc_own *. privates.(t).replicated_local);
  for n = 0 to nodes - 1 do
    dst.(base + n) <- dst.(base + n) +. (acc_shared *. shared.node_weight.(n));
    dst.(base + n) <- dst.(base + n) +. (acc_own *. privates.(t).node_weight.(n))
  done;
  if acc_burst > 0.0 && st.burst_victim >= 0 then begin
    let victim = privates.(st.burst_victim) in
    for n = 0 to nodes - 1 do
      dst.(base + n) <- dst.(base + n) +. (acc_burst *. victim.node_weight.(n))
    done;
    st.thread_burst.(t) <- acc_burst
  end;
  st.thread_shared.(t) <- acc_shared

(* The compute half of the epoch: capacity, instructions and the
   destination spread of every vCPU.  Everything written is indexed by
   the vCPU; everything read ([occupancy], the region weights, the
   epoch parameters, the stall mask) is fixed for the epoch. *)
let epoch_compute_kernel st ~occupancy ~oh ~carrefour_tax ~mr ~freq ~epoch_len ~threads =
  let s = st.slots in
  let shared = Guest_model.shared st.gm and privates = Guest_model.privates st.gm in
  for t = 0 to threads - 1 do
    if st.finish.(t) < 0.0 then begin
      if st.stalled.(t) then
        (* Injected stall: the vCPU makes no progress this epoch; the
           lost time shows up as blocked time. *)
        s.sync.(t) <- epoch_len
      else begin
        let pcpu = st.domain.Xen.Domain.vcpu_pin.(t) in
        let share = 1.0 /. float_of_int (max 1 occupancy.(pcpu)) in
        let avail = (epoch_len -. oh) *. share *. carrefour_tax in
        s.sync.(t) <- oh;
        let cpi = 1.0 +. (mr *. s.lat.(t)) +. st.tlb_cycles_per_instr in
        let cap = avail *. freq /. cpi in
        if cap > 0.0 then begin
          let doit = Float.min st.remaining.(t) cap in
          s.doit.(t) <- doit;
          s.cap.(t) <- cap;
          let accesses = doit *. mr in
          st.thread_accesses.(t) <- accesses;
          distribute_thread st t ~shared ~privates ~accesses
        end
      end
    end
  done

(* Fixed-order reduction over the kernel's per-vCPU slots: vCPU 0
   first, always. *)
let reduce_epoch_traffic st ~threads =
  for t = 0 to threads - 1 do
    let sums = st.sums in
    if st.finish.(t) < 0.0 then sums.sync_overhead <- sums.sync_overhead +. st.slots.sync.(t);
    if st.slots.cap.(t) > 0.0 then begin
      let acc_shared = st.thread_shared.(t) in
      st.src_shared.(st.thread_node.(t)) <- st.src_shared.(st.thread_node.(t)) +. acc_shared;
      sums.shared_accesses_epoch <- sums.shared_accesses_epoch +. acc_shared;
      if st.thread_burst.(t) > 0.0 then
        sums.burst_accesses_epoch <- sums.burst_accesses_epoch +. st.thread_burst.(t)
    end
  done

(* Per-epoch safety check of the steady-state fast-forward: a replayed
   epoch must not be one in which a thread would have finished or hit
   its work ceiling, because either changes next epoch's inputs.  For
   every still-running thread that did work in the armed epoch,
   [remaining >= cap] keeps the kernel's [Float.min remaining cap]
   bitwise equal to [cap], and [remaining -. final > 0] keeps the
   finish branch cold.  Pure — reads only the frozen capture arrays —
   so the bench can time it in isolation. *)
let replay_guard ~finish ~doit ~remaining ~cap ~final =
  let ok = ref true in
  let n = Array.length doit in
  for t = 0 to n - 1 do
    if
      !ok && finish.(t) < 0.0 && doit.(t) > 0.0
      && not (remaining.(t) >= cap.(t) && remaining.(t) -. final.(t) > 0.0)
    then ok := false
  done;
  !ok

(* Pass A of the epoch: the two pieces that must run every epoch even
   when the fast-forward replays the rest — the hot-front phase check
   (reads only [remaining]) and the burst bernoulli draw (advances
   [st.rng], whose stream position must stay identical whether or not
   the epoch is replayed).  Hoisted out of the compute pass verbatim;
   the draws use per-VM streams, so running pass A for every VM before
   any kernel is draw-order-neutral.  Also snapshots the quiescence
   witnesses that the arming check compares at the end of a full
   epoch. *)
let epoch_pass_a st =
  st.ff_rotated <- false;
  st.ff_io <- 0.0;
  st.ff_p2m_version <- Xen.P2m.version st.domain.Xen.Domain.p2m;
  st.ff_migrations <- Guest_model.migrations st.gm;
  st.ff_finished <- finished_threads st;
  let app = st.spec.Config.app in
  (* algorithmic phases: as the run progresses, the hot front of the
     shared region moves; static placements do not notice, dynamic
     policies must chase *)
  let phases = app.Workloads.App.phases in
  if phases > 1 then begin
    let phase = min (phases - 1) (int_of_float (progress st *. float_of_int phases)) in
    if Guest_model.rotate st.gm ~phase then st.ff_rotated <- true
  end;
  (* burst pattern: one thread transiently hammers another's pages *)
  if
    app.Workloads.App.remote_burst > 0.0
    && Sim.Rng.bernoulli st.rng app.Workloads.App.remote_burst
    && st.spec.Config.threads > 1
  then begin
    st.burst_victim <- Sim.Rng.int st.rng st.spec.Config.threads;
    st.burst_source <- (st.burst_victim + 1 + Sim.Rng.int st.rng (st.spec.Config.threads - 1))
                       mod st.spec.Config.threads
  end
  else begin
    st.burst_victim <- -1;
    st.burst_source <- -1
  end

(* Charge the epoch's disk DMA traffic.  Native Linux allocates the DMA
   buffer contiguously, hence on a single node; under Xen the hypervisor
   page table spreads guest-contiguous buffers over the home nodes
   (the effect the paper observes in Section 5.3.3). *)
let disk_traffic cfg st counters ~bus_node ~node_demand =
  let app = st.spec.Config.app in
  if st.io_bytes_left > 0.0 then begin
    let bytes = Float.min st.io_bytes_left (app.Workloads.App.disk_mb_s *. 1e6 *. Config.epoch_len) in
    st.io_bytes_left <- st.io_bytes_left -. bytes;
    st.ff_io <- bytes;
    let charge bytes node =
      node_demand.(node) <- node_demand.(node) +. bytes;
      Numa.Counters.record_accesses counters ~src:bus_node ~dst:node
        ~count:(bytes /. access_bytes) ~bytes_per_access:access_bytes
    in
    match cfg.Config.mode with
    | Config.Linux -> charge bytes st.thread_node.(0)
    | Config.Xen | Config.Xen_plus ->
        let home = st.domain.Xen.Domain.home_nodes in
        Array.iter (charge (bytes /. float_of_int (Array.length home))) home
  end

(* Commit the realized thread traffic to the hardware counters — a
   cross-vCPU float accumulation, so vCPU order, sequential. *)
let commit_traffic counters st (s : Slots.t) =
  let nodes = Array.length st.src_shared in
  for t = 0 to st.spec.Config.threads - 1 do
    if s.doit.(t) > 0.0 then
      Numa.Counters.record_row counters ~src:st.thread_node.(t) s.dst ~base:(t * nodes)
        ~bytes_per_access:access_bytes
  done

(* ------------------------------------------------------------------ *)
(* Epoch pipeline                                                      *)
(* ------------------------------------------------------------------ *)

(* The state of one run, shared by the stages below. *)
type run_state = {
  cfg : Config.t;
  topo : Numa.Topology.t;
  system : Xen.System.t;
  obs_stream : Obs.Stream.t option;
  counters : Numa.Counters.t;
  injector : Faults.Injector.t;
  states : vm_state list;
  dom0 : Xen.Domain.t option;
  ras : Ras.t;
  nodes : int;
  bus_node : int;
  node_demand : float array;
  node_scale : float array;
  (* Per-epoch memo of the (src, dst) memory latency: topology distance
     is static and route saturation is a last-epoch snapshot, so within
     one epoch every thread pair sharing (src, dst) sees the same
     cycles.  Filled eagerly each epoch — the values are a pure
     function of the topology and the counter snapshot, so eager and
     lazy fills agree bit for bit, and the latency kernel reads it
     without a fill check per thread pair. *)
  lat_memo : float array;
  occupancy : int array;
  sched_rng : Sim.Rng.t;
  mutable now : float;
  mutable epochs : int;
  (* Steady-state fast-forward.  [cfg.fast_forward] is the only
     whole-run switch; everything else is decided per epoch, by
     [replayable]. *)
  mutable ff_replayed : int;
}

(* [f] on every running VM, in VM order. *)
let each_running rs f = List.iter (fun st -> if vm_running st then f st) rs.states

(* What the per-epoch inputs leave for the replay decision. *)
type epoch_inputs = {
  disturbed : bool;  (* a vCPU moved, or a fault changed an input the kernels read *)
  pass_a_clean : bool;  (* no running VM rotated its hot front or burst *)
}

(* One dom0 vCPU shuttles roughly 150 MB/s of pv I/O. *)
let dom0_core_mb_s = 150.0

let boot (cfg : Config.t) =
  let scale = Config.page_scale cfg in
  let machine_desc = cfg.Config.machine in
  let topo = machine_desc.Numa.Machine_desc.topology () in
  let costs = Cost_model.costs_of_mode cfg.Config.mode in
  let system = Xen.System.create ~page_scale:scale ~costs topo in
  (* One trace stream per simulated run, labelled by the run's
     identity: labels (not OS worker identities) are the merge keys, so
     the merged trace is byte-identical at any --jobs.  Untraced runs
     never build the label. *)
  let obs_stream =
    Option.map
      (fun session -> Obs.Trace.stream session ~label:(Config.label cfg))
      (Obs.Trace.current ())
  in
  Xen.System.set_obs system obs_stream;
  let counters = Numa.Counters.create topo in
  let root_rng = Sim.Rng.create ~seed:cfg.Config.seed in
  (* dom0 handles the pv I/O path; the paper pins it to node 0's
     CPUs.  Its vCPUs only occupy pCPUs while I/O flows through it. *)
  let dom0 =
    match cfg.Config.mode with
    | Config.Linux -> None
    | Config.Xen | Config.Xen_plus ->
        Some
          (Xen.System.create_domain system ~name:"dom0" ~kind:Xen.Domain.Dom0 ~vcpus:6
             ~mem_bytes:(2 * 1024 * 1024 * 1024) ~home_nodes:[| 0 |] ())
  in
  (match dom0 with
  | Some d -> Array.iter (fun p -> system.Xen.System.pcpu_load.(p) <- system.Xen.System.pcpu_load.(p) - 1) d.Xen.Domain.vcpu_pin
  | None -> ());
  (* The injector owns a private stream derived from the run seed, so a
     fault run is exactly as reproducible as a clean one.  At epoch -1
     (boot) no window is armed: population is never perturbed. *)
  let injector = Faults.Injector.create ~seed:cfg.Config.seed cfg.Config.faults in
  Faults.Injector.install injector system;
  let states = List.map (setup_vm cfg system injector obs_stream root_rng) cfg.Config.vms in
  let nodes = Numa.Topology.node_count topo in
  let ras =
    Ras.create system injector
      ~managers:(List.map (fun st -> st.manager) states)
      ~home_nodes:(List.concat_map (fun st -> Array.to_list st.domain.Xen.Domain.home_nodes) states)
  in
  {
    cfg;
    topo;
    system;
    obs_stream;
    counters;
    injector;
    states;
    dom0;
    ras;
    nodes;
    bus_node =
      (match machine_desc.Numa.Machine_desc.pci_bus_nodes with
      | _ :: n :: _ | [ n ] -> n
      | [] -> 0);
    node_demand = Array.make nodes 0.0;
    node_scale = Array.make nodes 1.0;
    lat_memo = Array.make (nodes * nodes) 0.0;
    occupancy = Array.make (Array.length system.Xen.System.pcpu_load) 0;
    sched_rng = Sim.Rng.split root_rng;
    now = 0.0;
    epochs = 0;
    ff_replayed = 0;
  }

let running rs = List.exists vm_running rs.states

(* Ticked on every running VM every epoch, replayed or not, so the
   manager's clock is the epoch.  Under a fault plan the guest reports
   its free list ({!Churn.guest_free}), which lets the manager run its
   reconcile sweeps. *)
let tick rs st =
  let was_evacuating = Policies.Manager.evacuating st.manager >= 0 in
  Obs.Profile.span Obs.Profile.Epoch_tick (fun () ->
      Policies.Manager.epoch_tick st.manager ~epoch:rs.epochs
        ?guest_free:(Churn.guest_free st.churn) ());
  (* During (and right after) a drain the placement cache is
     wholesale-stale: re-resolve it through the P2M.  A drain leaves the
     manager unquiescent, so this never runs on a replayed epoch. *)
  if was_evacuating || Policies.Manager.evacuating st.manager >= 0 then
    Guest_model.refresh_regions st.gm

(* --- Epoch inputs: run on every epoch, replayed or not ------------- *)

let trace_epoch rs stream =
  (* Stamp subsequent events with this epoch's virtual time. *)
  Obs.Stream.set_time stream rs.now;
  Obs.Stream.emit ~arg:rs.epochs stream Obs.Event.Epoch_boundary;
  (* Walk/replica summaries, one per domain per epoch (the raw update
     stream would swamp the ring): the walk CPI term in milli-cycles,
     and the cumulative per-mirror counters.  Emitted only when the
     feature is on, so every other run's trace is byte-identical to the
     pre-walk-model engine. *)
  List.iter
    (fun st ->
      match Policies.Manager.pt st.manager with
      | None -> ()
      | Some pt ->
          let d = st.domain.Xen.Domain.id in
          if st.spec.Config.pt_walk then
            Obs.Stream.emit ~domain:d
              ~arg:(int_of_float (1000.0 *. st.tlb_cycles_per_instr))
              stream Obs.Event.Pt_walk;
          if Xen.Pt.replicated pt then begin
            Obs.Stream.emit ~domain:d ~arg:(Xen.Pt.replica_updates pt) stream
              Obs.Event.Pt_replica_update;
            Obs.Stream.emit ~domain:d ~arg:(Xen.Pt.replica_invalidations pt) stream
              Obs.Event.Pt_replica_invalidate
          end)
    rs.states

(* ECC: per-domain draws, in VM order.  A correctable error only
   charges the domain and traces; returns whether an uncorrectable one
   remapped a page (the P2M moved). *)
let ecc rs =
  List.fold_left
    (fun remapped st ->
      if not (vm_running st) then remapped
      else begin
        let p2m = st.domain.Xen.Domain.p2m in
        let version = Xen.P2m.version p2m in
        List.iter
          (function
            | Faults.Injector.Ce pfn -> Policies.Manager.handle_ecc_ce st.manager ~pfn
            | Faults.Injector.Ue pfn ->
                Policies.Manager.handle_ecc_ue st.manager ~pfn;
                Guest_model.update_page_node st.gm pfn)
          (Faults.Injector.ecc_events rs.injector ~frames:st.domain.Xen.Domain.mem_frames);
        remapped || Xen.P2m.version p2m <> version
      end)
    false rs.states

(* Credit-scheduler accounting period: rebalance unpinned vCPUs onto
   idle pCPUs.  The vCPU moves; its memory does not — exactly the
   hazard the paper's introduction describes for guest-visible NUMA
   topologies.  It draws every epoch, replayed or not; an epoch in
   which a vCPU moved runs in full and stales every capture.  Returns
   whether any vCPU moved. *)
let schedule_vcpus rs =
  List.exists (fun st -> not st.spec.Config.pinned) rs.states
  &&
  let st_of_domain id = List.find (fun st -> st.domain.Xen.Domain.id = id) rs.states in
  let domains = List.map (fun st -> st.domain) rs.states in
  let movable (d : Xen.Domain.t) = not (st_of_domain d.Xen.Domain.id).spec.Config.pinned in
  let active (d : Xen.Domain.t) v = (st_of_domain d.Xen.Domain.id).finish.(v) < 0.0 in
  let migrations = Xen.Sched.balance rs.topo ~rng:rs.sched_rng ~domains ~movable ~active in
  List.iter
    (fun (m : Xen.Sched.migration) ->
      let st = st_of_domain m.Xen.Sched.domain_id in
      st.thread_node.(m.Xen.Sched.vcpu) <- Numa.Topology.node_of_cpu rs.topo m.Xen.Sched.to_pcpu)
    migrations;
  migrations <> []

let epoch_inputs rs =
  Option.iter (trace_epoch rs) rs.obs_stream;
  Faults.Injector.set_epoch rs.injector rs.epochs;
  let nodes_changed = Ras.step rs.ras in
  let remapped = ecc rs in
  (* Pass A runs for every epoch, replayed or not: the phase check and
     burst draw keep every RNG stream position identical to the naive
     loop's, and the snapshots feed the arming check. *)
  let pass_a_clean =
    List.fold_left
      (fun clean st ->
        if vm_running st then begin
          epoch_pass_a st;
          clean && not (st.ff_rotated || st.burst_victim >= 0)
        end
        else clean)
      true rs.states
  in
  let vcpus_moved = schedule_vcpus rs in
  (* The stall draws, VM by VM in vCPU order, for the compute kernel.
     Drawn here, every epoch, so a replayed epoch advances the
     injector's stream exactly as a full one. *)
  let stalled =
    List.fold_left
      (fun any st ->
        Faults.Injector.vcpu_stalls rs.injector ~finish:st.finish ~stalled:st.stalled || any)
      false rs.states
  in
  { disturbed = vcpus_moved || nodes_changed || remapped || stalled; pass_a_clean }

(* --- Replayed epoch ------------------------------------------------ *)

(* The one replay decision, taken at the epoch it decides: nothing
   disturbed the epoch's inputs (no vCPU moved, no fault fired that the
   kernels read) and pass A stayed clean; no running VM's manager has
   periodic work (Carrefour feed, promote scan, reconcile sweep) due
   now; and every running VM armed itself at the end of a full epoch,
   its I/O state matches the capture and the replay guard passes. *)
let replayable rs inputs =
  let e = rs.epochs in
  rs.cfg.Config.fast_forward && (not inputs.disturbed) && inputs.pass_a_clean
  && List.for_all
       (fun st ->
         (not (vm_running st))
         || (not (Policies.Manager.boundary_due st.manager ~epoch:e))
            && st.ff_armed
            &&
            (* The capture whose parity matches this epoch is the one
               the replay would apply. *)
            let snap = st.ff_snap.(e land 1) in
            (* Steady disk DMA replays too, but only while the pool can
               still serve a full-rate epoch; the partial final epoch
               (and the first post-I/O epoch) must run live. *)
            (if snap.io > 0.0 then st.io_bytes_left >= snap.io else st.io_bytes_left <= 0.0)
            && replay_guard ~finish:st.finish ~doit:snap.slots.doit ~remaining:st.remaining
                 ~cap:snap.slots.cap ~final:snap.slots.final)
       rs.states

(* The captured epoch's blocked time and retired work: the full path's
   traffic reduction and throughput kernel leave exactly these. *)
let retire st (s : Slots.t) =
  for t = 0 to st.spec.Config.threads - 1 do
    if st.finish.(t) < 0.0 then st.sums.sync_overhead <- st.sums.sync_overhead +. s.sync.(t);
    if s.doit.(t) > 0.0 then st.remaining.(t) <- st.remaining.(t) -. s.final.(t)
  done

(* Delta replay: the full epoch's end-of-epoch stages, run over the
   capture of this epoch's parity instead of the slots the kernels
   would have rewritten with the same bits — same additions, same
   order, so results and traces are bit-identical to the naive loop
   (the engine.ff suite checks exactly that).  Disk DMA is committed
   before the thread traffic, as in the full path; the replay guard
   proved it moves the captured full-rate byte count, or nothing.
   Scratch the full path rebuilds every epoch (node_demand,
   node_scale, lat_memo, src_shared...) is left stale: only full
   epochs read it, and each starts by refilling it. *)
let replay_epoch rs =
  rs.ff_replayed <- rs.ff_replayed + 1;
  let snap st = st.ff_snap.(rs.epochs land 1).slots in
  Obs.Profile.span Obs.Profile.Ff_replay (fun () ->
      each_running rs (fun st -> retire st (snap st));
      each_running rs (fun st ->
          disk_traffic rs.cfg st rs.counters ~bus_node:rs.bus_node ~node_demand:rs.node_demand);
      each_running rs (fun st -> commit_traffic rs.counters st (snap st));
      Numa.Counters.end_epoch rs.counters ~duration:Config.epoch_len;
      each_running rs (fun st ->
          let s = snap st in
          Outcome.reduce_latency st.out ~thread_node:st.thread_node s;
          (* Keep the one live cross-epoch input phase-correct: the
             next full epoch's compute kernel reads [lat], which must
             hold this (replayed) epoch's values. *)
          Array.blit s.lat 0 st.slots.lat 0 (Array.length s.lat)));
  each_running rs (tick rs)

(* --- Full epoch ---------------------------------------------------- *)

(* dom0 load, occupancy, then per VM: reset the epoch's slots, reprice
   the page walk, run the compute kernel, reduce its traffic and charge
   the disk DMA. *)
let compute_stage rs =
  let cfg = rs.cfg and nodes = rs.nodes in
  let machine = cfg.Config.machine in
  Array.fill rs.node_demand 0 nodes 0.0;
  (* dom0 load for this epoch, from the pv I/O still flowing. *)
  let dom0_active =
    match rs.dom0 with
    | None -> 0
    | Some _ ->
        let pv_mb_s =
          List.fold_left
            (fun acc st ->
              if
                vm_running st && st.io_bytes_left > 0.0
                && Cost_model.io_path cfg.Config.mode st.spec.Config.policy = `Pv
              then acc +. st.spec.Config.app.Workloads.App.disk_mb_s
              else acc)
            0.0 rs.states
        in
        min 6 (int_of_float (Float.round (pv_mb_s /. dom0_core_mb_s)))
  in
  compute_occupancy ~occ:rs.occupancy rs.states ~dom0:rs.dom0 ~dom0_active;
  each_running rs (fun st ->
      let threads = st.spec.Config.threads in
      let s = st.slots in
      (* reset per-epoch traffic *)
      Array.fill s.dst 0 (Array.length s.dst) 0.0;
      Array.fill st.thread_accesses 0 threads 0.0;
      Array.fill st.thread_shared 0 threads 0.0;
      Array.fill st.thread_burst 0 threads 0.0;
      Array.fill s.sync 0 threads 0.0;
      Array.fill st.src_shared 0 nodes 0.0;
      st.sums.shared_accesses_epoch <- 0.0;
      st.sums.burst_accesses_epoch <- 0.0;
      let app = st.spec.Config.app in
      (* Track the live superpage fraction (splinters and promotes
         move it); non-superpage runs keep the boot-time constant bit
         for bit.  Under --pt-walk the radix model reprices the walk
         from the page tables' current placement instead. *)
      (match Policies.Manager.pt st.manager with
      | Some pt when st.spec.Config.pt_walk ->
          st.tlb_cycles_per_instr <-
            Cost_model.walk_cpi_radix cfg st.spec
              ~huge_fraction:(Cost_model.huge_fraction st.spec st.domain.Xen.Domain.p2m)
              ~pt ~thread_node:st.thread_node ~topo:rs.topo
              ~latency:machine.Numa.Machine_desc.latency
      | Some _ | None ->
          if Policies.Manager.superpages_enabled st.manager then
            st.tlb_cycles_per_instr <-
              Cost_model.walk_cpi cfg st.spec
                ~huge_fraction:(Cost_model.huge_fraction st.spec st.domain.Xen.Domain.p2m));
      let oh = Cost_model.epoch_sync_overhead cfg st.spec in
      (* Carrefour's continuous hardware-counter sampling is not free:
         the paper observes it slightly degrades applications it
         cannot help. *)
      let carrefour_tax =
        match Policies.Manager.carrefour st.manager with Some _ -> 0.98 | None -> 1.0
      in
      let mr = app.Workloads.App.miss_rate in
      Array.fill s.doit 0 threads 0.0;
      Array.fill s.cap 0 threads 0.0;
      Obs.Profile.span Obs.Profile.Kernel_compute (fun () ->
          epoch_compute_kernel st ~occupancy:rs.occupancy ~oh ~carrefour_tax ~mr
            ~freq:machine.Numa.Machine_desc.freq_hz ~epoch_len:Config.epoch_len ~threads);
      Obs.Profile.span Obs.Profile.Reduce (fun () -> reduce_epoch_traffic st ~threads);
      disk_traffic cfg st rs.counters ~bus_node:rs.bus_node ~node_demand:rs.node_demand)

(* Bandwidth clamp: a memory controller serves at most its
   (random-access effective) capacity per epoch.  When the demand on a
   node overflows, every thread touching that node stalls in proportion
   — the throughput collapse that makes master-slave patterns so
   expensive, beyond the latency inflation alone. *)
let clamp_bandwidth rs =
  let nodes = rs.nodes in
  each_running rs (fun st ->
      for t = 0 to st.spec.Config.threads - 1 do
        let base = t * nodes in
        for n = 0 to nodes - 1 do
          rs.node_demand.(n) <- rs.node_demand.(n) +. (st.slots.dst.(base + n) *. access_bytes)
        done
      done);
  let capacity = Ras.capacity rs.ras in
  for n = 0 to nodes - 1 do
    rs.node_scale.(n) <-
      (if rs.node_demand.(n) > capacity.(n) then capacity.(n) /. rs.node_demand.(n) else 1.0)
  done

(* vCPU-local half: realized throughput, work retirement and finish
   times read only vCPU [t]'s slots (node_scale is fixed for the
   epoch); then the counter commit. *)
let throughput_stage rs st =
  let nodes = rs.nodes in
  let s = st.slots in
  Obs.Profile.span Obs.Profile.Kernel_throughput (fun () ->
      for t = 0 to st.spec.Config.threads - 1 do
        if s.doit.(t) > 0.0 then begin
          let base = t * nodes in
          (* A sequential access stream advances at the pace of its most
             throttled destination. *)
          let realized = ref 1.0 in
          for n = 0 to nodes - 1 do
            if s.dst.(base + n) > 1e-9 && rs.node_scale.(n) < !realized then
              realized := rs.node_scale.(n)
          done;
          let realized = !realized in
          let final = s.doit.(t) *. realized in
          s.final.(t) <- final;
          st.remaining.(t) <- st.remaining.(t) -. final;
          if st.remaining.(t) <= 0.0 then
            st.finish.(t) <-
              rs.now +. (Config.epoch_len *. (final /. Float.max 1.0 (s.cap.(t) *. realized)));
          if realized < 1.0 then begin
            st.thread_accesses.(t) <- st.thread_accesses.(t) *. realized;
            for n = 0 to nodes - 1 do
              s.dst.(base + n) <- s.dst.(base + n) *. realized
            done
          end
        end
      done);
  Obs.Profile.span Obs.Profile.Reduce (fun () -> commit_traffic rs.counters st s)

let latency_stage rs st =
  let nodes = rs.nodes in
  let s = st.slots in
  Obs.Profile.span Obs.Profile.Kernel_latency (fun () ->
      for t = 0 to st.spec.Config.threads - 1 do
        let base = t * nodes in
        let total = ref 0.0 in
        for n = 0 to nodes - 1 do
          total := !total +. s.dst.(base + n)
        done;
        let total = !total in
        s.total.(t) <- total;
        if total > 0.0 then begin
          let src = st.thread_node.(t) in
          let lat = ref 0.0 in
          for n = 0 to nodes - 1 do
            if s.dst.(base + n) > 0.0 then
              lat := !lat +. (s.dst.(base + n) /. total *. rs.lat_memo.((src * nodes) + n))
          done;
          s.lat.(t) <- !lat
        end
      done);
  Obs.Profile.span Obs.Profile.Reduce (fun () ->
      Outcome.reduce_latency st.out ~thread_node:st.thread_node s)

(* Carrefour runs its user component once per period (once per
   second), like the real system; the Manager owns the period. *)
let carrefour_period rs st =
  if Policies.Manager.carrefour_due st.manager ~epoch:rs.epochs then
    match
      Obs.Profile.span Obs.Profile.Carrefour_feed (fun () ->
          Policies.Manager.carrefour_epoch_feed st.manager ~counters:rs.counters
            ~feed:(fun sys ->
              Guest_model.feed_samples st.gm sys ~rng:st.rng ~src_shared:st.src_shared
                ~shared_total:st.sums.shared_accesses_epoch
                ~burst_total:st.sums.burst_accesses_epoch ~thread_accesses:st.thread_accesses
                ~finish:st.finish ~thread_node:st.thread_node ~burst_victim:st.burst_victim
                ~burst_source:st.burst_source))
    with
    | Some _ -> Guest_model.refresh_placement st.gm (Policies.Manager.carrefour st.manager)
    | None -> ()

(* Arming check and capture.  The structural clauses prove nothing
   moved this epoch's inputs: the P2M version covers every mapping
   mutation; the finish count covers occupancy; I/O must have drained
   so dom0 stays idle and disk DMA silent; nothing disturbed the
   epoch's inputs (no vCPU moved, no fault fired that the kernels
   read); the manager is quiescent, so a replayed epoch's tick only
   advances its clock; and no churn queue.  A structurally clean epoch
   is then captured into the snapshot of its parity; it ARMS the fast-forward when it bitwise reproduced the
   same-parity capture of two epochs before — the witness that the
   latency feedback settled into its (period ≤ 2) limit cycle.  Any unclean epoch stales both
   captures, so a fresh witness always spans consecutive clean epochs.
   By induction, every subsequent guarded epoch then reproduces the
   opposite-parity capture's floats exactly. *)
let arm rs st ~disturbed =
  let e = rs.epochs in
  let clean =
    (not disturbed) && (not (Churn.concrete st.churn))
    && Xen.P2m.version st.domain.Xen.Domain.p2m = st.ff_p2m_version
    && (not st.ff_rotated)
    && st.burst_victim < 0
    && (st.ff_io = 0.0
       || st.ff_io = st.spec.Config.app.Workloads.App.disk_mb_s *. 1e6 *. Config.epoch_len)
    && Guest_model.migrations st.gm = st.ff_migrations
    && finished_threads st = st.ff_finished
    && Policies.Manager.quiescent st.manager
  in
  if not clean then begin
    st.ff_armed <- false;
    st.ff_snap.(0).epoch <- -1;
    st.ff_snap.(1).epoch <- -1
  end
  else begin
    let snap = st.ff_snap.(e land 1) in
    let other = st.ff_snap.(1 - (e land 1)) in
    (* A capture only ever holds an epoch of its own parity. *)
    st.ff_armed <-
      snap.epoch >= 0 && other.epoch >= 0
      && Slots.bits_equal snap.slots st.slots
      && Int64.bits_of_float snap.io = Int64.bits_of_float st.ff_io;
    snap.epoch <- e;
    Slots.copy ~from:st.slots ~into:snap.slots;
    snap.io <- st.ff_io
  end

let full_epoch rs ~disturbed =
  compute_stage rs;
  clamp_bandwidth rs;
  each_running rs (throughput_stage rs);
  Numa.Counters.end_epoch rs.counters ~duration:Config.epoch_len;
  (* Latency feedback: the memo from this epoch's counters (a degraded
     destination controller behaves like a saturated one: retries and
     dropped bandwidth inflate latency). *)
  Numa.Counters.fill_latency rs.counters rs.cfg.Config.machine.Numa.Machine_desc.latency
    ~bw_factor:(Ras.bw_factor rs.ras) ~into:rs.lat_memo;
  each_running rs (fun st ->
      latency_stage rs st;
      Churn.epoch st.churn;
      tick rs st;
      carrefour_period rs st;
      if rs.cfg.Config.fast_forward then arm rs st ~disturbed)

(* --- Observer, step, finish ---------------------------------------- *)

let observe rs =
  match rs.cfg.Config.observer with
  | None -> ()
  | Some observer ->
      let counters = rs.counters in
      observer
        {
          Config.epoch_index = rs.epochs;
          time = rs.now +. Config.epoch_len;
          imbalance = Numa.Counters.imbalance counters;
          max_controller_util =
            Array.fold_left Float.max 0.0 (Numa.Counters.last_controller_utilisation counters);
          max_link_util =
            Array.fold_left Float.max 0.0 (Numa.Counters.last_link_utilisation counters);
          progress =
            List.map (fun st -> (st.spec.Config.app.Workloads.App.name, progress st)) rs.states;
          local_fraction =
            List.map
              (fun st -> (st.spec.Config.app.Workloads.App.name, Outcome.local_fraction st.out))
              rs.states;
        }

let step rs =
  let inputs = epoch_inputs rs in
  if replayable rs inputs then replay_epoch rs else full_epoch rs ~disturbed:inputs.disturbed;
  observe rs;
  rs.epochs <- rs.epochs + 1;
  rs.now <- rs.now +. Config.epoch_len

let finish rs =
  List.iter (fun st -> Policies.Manager.audit st.manager) rs.states;
  Obs.Profile.span Obs.Profile.Outcome (fun () ->
      let vm st =
        Outcome.vm_result st.out rs.cfg rs.system st.churn ~finish:st.finish
          ~sync_overhead:st.sums.sync_overhead ~migrations:(Guest_model.migrations st.gm)
          ~walk_cpi:st.tlb_cycles_per_instr
      in
      let result =
        {
          Result.vms = List.map vm rs.states;
          imbalance = Numa.Counters.imbalance rs.counters;
          interconnect_load = Numa.Counters.interconnect_load rs.counters;
          epochs = rs.epochs;
          replayed_epochs = rs.ff_replayed;
          faults_injected = Faults.Injector.total_injected rs.injector;
        }
      in
      Outcome.commit_metrics result (List.map (fun st -> st.out) rs.states);
      result)

let run (cfg : Config.t) =
  let rs = boot cfg in
  while running rs && rs.epochs < cfg.Config.max_epochs do
    step rs
  done;
  finish rs

let replay_stage cfg =
  let rs = boot cfg in
  let armed st = (not (vm_running st)) || st.ff_armed in
  while not (running rs && List.for_all armed rs.states) do
    if not (running rs && rs.epochs < cfg.Config.max_epochs) then
      invalid_arg "Runner.replay_stage: the run ended before the fast-forward armed";
    step rs
  done;
  fun () -> replay_epoch rs
