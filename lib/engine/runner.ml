let access_bytes = 64.0

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)
(* ------------------------------------------------------------------ *)

type region = {
  pfns : int array;
  weights : float array;  (* popularity by hot rank (rank 0 hottest) *)
  page_node : int array;
  node_weight : float array;  (* per-node popularity sums *)
  replicated : Bytes.t;  (* pages whose read traffic is served locally *)
  mutable replicated_local : float;
      (* popularity mass served on the reader's own node (replicated
         read-only pages); node_weight + replicated_local sums to 1 *)
  mutable shift : int;
      (* phase rotation: page (shift + rank) mod pages holds hot
         rank [rank]; algorithmic phases move the hot front *)
}

(* The per-vCPU epoch state lives in flat structure-of-arrays form,
   indexed by vCPU (row [t * nodes .. t * nodes + nodes - 1] of
   [thread_dst] is vCPU [t]'s destination spread), so the epoch
   kernels walk contiguous memory.

   The kernels write {e only} vCPU-indexed slots; every accumulation
   that crosses vCPUs ([src_shared], [shared_accesses_epoch], the
   counters, [weighted_lat] ...) reads those slots afterwards in one
   sequential vCPU-order reduction.  Float addition is not
   associative, so the reduction order — vCPU 0, 1, 2, ... — is fixed,
   and the per-vCPU slots are exactly what the fast-forward captures
   and replays (DESIGN.md §13, §17). *)
type vm_state = {
  spec : Config.vm_spec;
  domain : Xen.Domain.t;
  manager : Policies.Manager.t;
  pool : Guest.Pfn_pool.t;
  queue : Guest.Pv_queue.t option;
      (* Concrete pv queue driving real alloc/release churn; only built
         under fault injection (clean runs model the churn analytically
         in release_churn_overhead). *)
  process : Guest.Process.t;
  shared : region;
  privates : region array;
  (* Flat pfn -> region location index.  Guest pfns are small dense
     ints (< mem_frames), so two int arrays beat a Hashtbl on the
     per-sample lookup path: no hashing, no boxing, no allocation.
     owner -1 = untracked, 0 = shared region, t+1 = private region of
     thread t; slot is the page's index within that region. *)
  pfn_owner : int array;
  pfn_slot : int array;
  (* Scratch for build_samples, reused every Carrefour period instead
     of a fresh Hashtbl: seen.(i) marks shared page i as already
     sampled; touched lists the marked indices so only they are
     cleared afterwards. *)
  sample_seen : Bytes.t;
  sample_touched : int array;
  (* Pages fed to Carrefour this period, for refresh_placement: the
     heat table copies sample arrays on insert, so one scratch float
     array serves every sample and only the pfns need remembering. *)
  sample_pfns : int array;
  mutable sample_count : int;
  sample_scratch : float array;
  remaining : float array;
  avg_lat : float array;
  finish : float array;  (* -1 while running *)
  thread_node : int array;
  thread_dst : float array;  (* threads * nodes, row-major by vCPU *)
  thread_accesses : float array;  (* this epoch, per thread *)
  thread_doit : float array;  (* tentative instructions this epoch *)
  thread_cap : float array;   (* instruction capacity this epoch *)
  thread_shared : float array;  (* accesses into the shared region *)
  thread_burst : float array;   (* burst accesses, > 0 only for the source *)
  thread_sync : float array;    (* blocked time contribution this epoch *)
  thread_total : float array;   (* realized accesses, for the latency pass *)
  thread_final : float array;   (* instructions retired this epoch, per thread;
                                   captured because the throughput kernel scales
                                   thread_dst/thread_accesses in place, which
                                   loses [doit *. realized] — the delta the
                                   fast-forward replay re-subtracts *)
  src_shared : float array;  (* accesses into the shared region per source node *)
  mutable shared_accesses_epoch : float;
  mutable burst_victim : int;
  mutable burst_source : int;
  mutable burst_accesses_epoch : float;
  mutable io_bytes_left : float;
  mutable sync_overhead : float;
  mutable migrations : int;
  mutable weighted_lat : float;
  mutable total_accesses : float;
  mutable local_accesses : float;
  (* Tail-latency observability: one per-vCPU-per-epoch sample of the
     epoch's mean latency, recorded in the sequential reduction so the
     distribution is bit-identical across --jobs. *)
  lat_hist : Sim.Stats.Histogram.t;
  slo_scratch : float array;  (* running vCPUs' epoch latencies *)
  slo_violations : int array;  (* per cfg.slo objective, spec order *)
  mutable active_epochs : int;  (* epochs in which any vCPU ran work *)
  mutable private_sample_cursor : int;
  mutable tlb_cycles_per_instr : float;
      (* static, except under P2M superpages where it tracks the live
         superpage fraction epoch by epoch *)
  work_per_thread : float;
  mutable phase : int;
  rng : Sim.Rng.t;
  (* Steady-state fast-forward bookkeeping.  [ff_armed] is set at the
     end of a full epoch that bitwise reproduced the same-parity
     capture from two epochs before; the witnesses below are taken at
     the top of every epoch (pass A) and compared at the bottom, so
     "nothing moved this epoch" is a check, not an assumption. *)
  mutable ff_armed : bool;
  mutable ff_p2m_version : int;  (* P2m.version at the top of the epoch *)
  mutable ff_migrations : int;   (* st.migrations at the top of the epoch *)
  mutable ff_finished : int;     (* finished-thread count at the top *)
  mutable ff_rotated : bool;     (* pass A rotated the hot front this epoch *)
  mutable ff_io : float;         (* disk DMA bytes transferred this epoch *)
  mutable ff_slo_active : bool;  (* the SLO block ran this epoch (scratch) *)
  ff_slo_violate : bool array;   (* per-objective verdicts (scratch) *)
  ff_snap : ff_snap array;       (* the two parity captures (even, odd) *)
}

(* One captured epoch of per-thread deltas for the fast-forward.  The
   latency feedback's fixed point is in general a period-2 limit cycle
   in the last ulp (the one-epoch-lag iteration overshoots and
   alternates between two neighbouring floats forever), so the runner
   keeps one capture per epoch parity and the replay alternates them;
   a true period-1 fixed point just makes the two captures equal. *)
and ff_snap = {
  mutable sn_epoch : int;  (* capture epoch; -1 = stale *)
  sn_sync : float array;   (* thread_sync: per-thread blocked time *)
  sn_doit : float array;   (* > 0 marks threads that did work *)
  sn_cap : float array;    (* epoch instruction ceiling, for the guard *)
  sn_final : float array;  (* instructions retired (the work delta) *)
  sn_total : float array;  (* realized accesses (the latency weights) *)
  sn_lat : float array;    (* per-thread average latency *)
  sn_dst : float array;    (* realized per-thread per-node traffic *)
  mutable sn_io : float;   (* disk DMA bytes of the captured epoch *)
  mutable sn_slo_active : bool;
  sn_slo_violate : bool array;
}

let vm_running st = Array.exists (fun f -> f < 0.0) st.finish

(* ------------------------------------------------------------------ *)
(* Cost models per mode                                                *)
(* ------------------------------------------------------------------ *)

(* Native Linux: no hypercalls, guest page faults are cheap minor
   faults, native IPIs and wake-ups, native I/O. *)
let native_costs =
  {
    Xen.Costs.default with
    Xen.Costs.hypercall_entry = 0.0;
    page_op_send = 0.0;
    page_invalidate = 0.0;
    hypervisor_fault = 1.0e-6;
    page_map = 0.0;
  }

let costs_of_mode = function
  | Config.Linux -> native_costs
  | Config.Xen | Config.Xen_plus -> Xen.Costs.default

let wakeup_of_mode costs = function
  | Config.Linux -> costs.Xen.Costs.blocked_wakeup_native
  | Config.Xen | Config.Xen_plus -> costs.Xen.Costs.blocked_wakeup_guest

(* I/O path: Linux is native; stock Xen uses the dom0-mediated pv
   drivers; Xen+ uses PCI passthrough with the IOMMU — unless the
   first-touch policy is active, which is incompatible with the IOMMU
   (invalid P2M entries abort DMA with an asynchronous error). *)
let io_path mode (policy : Policies.Spec.t) =
  match mode with
  | Config.Linux -> `Native
  | Config.Xen -> `Pv
  | Config.Xen_plus ->
      if policy.Policies.Spec.placement = Policies.Spec.First_touch then `Pv else `Passthrough

let io_request_overhead costs = function
  | `Native -> costs.Xen.Costs.disk_native_request
  | `Pv -> costs.Xen.Costs.disk_native_request +. costs.Xen.Costs.disk_pv_extra
  | `Passthrough -> costs.Xen.Costs.disk_native_request +. costs.Xen.Costs.disk_passthrough_extra

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let zipf_weights ~pages ~s =
  let w = Array.init pages (fun i -> (float_of_int (i + 1)) ** (-.s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let uniform_weights ~pages = Array.make pages (1.0 /. float_of_int pages)

(* Touch [pages] consecutive virtual pages as [cpu]; returns the region
   with its placement resolved through the guest and hypervisor page
   tables. *)
let build_region system st_pool process domain ~vfn0 ~pages ~weights ~cpu ~nodes =
  ignore st_pool;
  let pfns = Array.make pages 0 in
  let page_node = Array.make pages 0 in
  let node_weight = Array.make nodes 0.0 in
  for i = 0 to pages - 1 do
    match Guest.Process.touch process (vfn0 + i) with
    | None -> invalid_arg "Runner: guest physical memory exhausted"
    | Some pfn ->
        pfns.(i) <- pfn;
        let p2m = domain.Xen.Domain.p2m in
        if Xen.P2m.mfn_of p2m pfn < 0 then
          ignore (Xen.Domain.handle_fault domain ~costs:system.Xen.System.costs ~pfn ~cpu);
        let mfn = Xen.P2m.mfn_of p2m pfn in
        let node =
          if mfn < 0 then domain.Xen.Domain.home_nodes.(0)
          else Memory.Machine.node_of_mfn system.Xen.System.machine mfn
        in
        page_node.(i) <- node;
        node_weight.(node) <- node_weight.(node) +. weights.(i)
  done;
  { pfns; weights; page_node; node_weight; replicated = Bytes.make pages '\000';
    replicated_local = 0.0; shift = 0 }

(* TLB walk cycles per instruction: ~0.3 memory accesses per
   instruction, each missing the TLB per the coverage model; nested
   paging makes every walk ~3x dearer, huge pages make walks rare. *)
let tlb_hot_access_share (app : Workloads.App.t) =
  Float.min 0.95 (0.45 +. (0.4 *. app.Workloads.App.zipf_s))

let tlb_cycles_per_instr (cfg : Config.t) (spec : Config.vm_spec) =
  let app = spec.Config.app in
  let page_size = if spec.Config.huge_pages then Guest.Tlb.Huge_2m else Guest.Tlb.Small_4k in
  let virtualized = cfg.Config.mode <> Config.Linux in
  0.3
  *. Guest.Tlb.cycles_per_access Guest.Tlb.opteron page_size ~virtualized
       ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
       ~hot_access_share:(tlb_hot_access_share app)

(* Under P2M superpages the walk cost is not a boot-time constant: the
   fraction of guest memory behind 2 MiB entries moves as first-touch
   invalidations splinter extents and the promotion scan re-coalesces
   them, and the TLB reach follows it.  Guest-level huge pages
   ([huge_pages]) still assume the whole footprint is huge-mapped. *)
let tlb_cycles_per_instr_dynamic (cfg : Config.t) (spec : Config.vm_spec)
    (domain : Xen.Domain.t) =
  if spec.Config.huge_pages then tlb_cycles_per_instr cfg spec
  else begin
    let app = spec.Config.app in
    let p2m = domain.Xen.Domain.p2m in
    let mapped = Xen.P2m.mapped_count p2m in
    let huge_fraction =
      if mapped = 0 then 0.0
      else float_of_int (Xen.P2m.superpage_frames p2m) /. float_of_int mapped
    in
    0.3
    *. Guest.Tlb.cycles_per_access_mixed Guest.Tlb.opteron ~huge_fraction
         ~virtualized:(cfg.Config.mode <> Config.Linux)
         ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
         ~hot_access_share:(tlb_hot_access_share app)
  end

(* Radix pricing (--pt-walk): each walk level is charged at the static
   latency of the node backing that page-table level, normalised to
   the local latency the flat model assumes.  Ratios use unsaturated
   latencies — the walk term prices the tables' placement, not the
   epoch's congestion — so on a topology where every level is local
   (one node, or replicated tables) the sum collapses back to the
   flat constant by construction. *)
let tlb_cycles_per_instr_radix (cfg : Config.t) (spec : Config.vm_spec)
    (domain : Xen.Domain.t) ~(pt : Xen.Pt.t) ~(thread_node : int array) ~topo ~latency =
  let app = spec.Config.app in
  let local = Numa.Latency.mem_cycles latency ~hops:0 ~saturation:0.0 in
  let threads = spec.Config.threads in
  let level_ratio level =
    let acc = ref 0.0 in
    for t = 0 to threads - 1 do
      let node = thread_node.(t) in
      let hops = Numa.Topology.distance topo node (Xen.Pt.level_node pt ~level ~node) in
      acc := !acc +. (Numa.Latency.mem_cycles latency ~hops ~saturation:0.0 /. local)
    done;
    !acc /. float_of_int threads
  in
  let huge_fraction =
    if spec.Config.huge_pages then 1.0
    else begin
      (* Without P2M superpages the counter is 0, so this is the 4 KiB
         path; with them it tracks the live fraction like the flat
         dynamic model. *)
      let p2m = domain.Xen.Domain.p2m in
      let mapped = Xen.P2m.mapped_count p2m in
      if mapped = 0 then 0.0
      else float_of_int (Xen.P2m.superpage_frames p2m) /. float_of_int mapped
    end
  in
  0.3
  *. Guest.Tlb.cycles_per_access_mixed_radix Guest.Tlb.opteron ~huge_fraction
       ~virtualized:(cfg.Config.mode <> Config.Linux)
       ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
       ~hot_access_share:(tlb_hot_access_share app) ~level_ratio

(* Popularity of page [i] under the region's current rotation. *)
let eff_weight region i =
  let pages = Array.length region.weights in
  region.weights.(((i - region.shift) mod pages + pages) mod pages)

(* Move the hot front: re-aggregate per-node popularity under the new
   rotation (replicated pages keep serving their read share locally). *)
let rotate_region region ~shift ~read_fraction =
  if shift <> region.shift then begin
    region.shift <- shift;
    Array.fill region.node_weight 0 (Array.length region.node_weight) 0.0;
    region.replicated_local <- 0.0;
    Array.iteri
      (fun i node ->
        let w = eff_weight region i in
        if Bytes.get region.replicated i <> '\000' then begin
          region.node_weight.(node) <- region.node_weight.(node) +. (w *. (1.0 -. read_fraction));
          region.replicated_local <- region.replicated_local +. (w *. read_fraction)
        end
        else region.node_weight.(node) <- region.node_weight.(node) +. w)
      region.page_node
  end

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

let setup_vm (cfg : Config.t) system injector root_rng (spec : Config.vm_spec) =
  let app = spec.Config.app in
  let topo = system.Xen.System.topo in
  let nodes = Numa.Topology.node_count topo in
  let machine = system.Xen.System.machine in
  let frame_bytes = Memory.Machine.frame_bytes machine in
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
    | Config.Xen | Config.Xen_plus ->
        if policy.Policies.Spec.placement = Policies.Spec.Round_1g then Policies.Spec.round_1g
        else if superpages && policy.Policies.Spec.placement = Policies.Spec.First_touch then
          (* With superpages the contiguous boot placement is worth
             modelling for first-touch too: the switch's free-list
             release then splinters every 2 MiB entry — the paper's
             granularity tension at its sharpest. *)
          Policies.Spec.round_1g
        else Policies.Spec.round_4k
  in
  let manager =
    Policies.Manager.attach ~carrefour_config:(carrefour_config cfg machine) ~superpages
      ~pt_walk ~replicate_pt system domain ~boot ~rng
  in
  (match cfg.Config.mode with
  | Config.Linux -> ()
  | Config.Xen | Config.Xen_plus ->
      if not (Policies.Spec.equal policy boot) then begin
        match Policies.Manager.set_policy manager policy with
        | Ok () ->
            (* On a switch to first-touch the guest reports its whole
               free list; every entry is invalidated so the first touch
               of each page faults into the hypervisor. *)
            if policy.Policies.Spec.placement = Policies.Spec.First_touch then
              ignore
                (Policies.Manager.release_free_range manager ~first:0
                   ~count:domain.Xen.Domain.mem_frames)
        | Error msg -> invalid_arg ("Runner: " ^ msg)
      end);
  let queue =
    match cfg.Config.mode with
    | Config.Linux -> None
    | Config.Xen | Config.Xen_plus ->
        if
          Faults.Injector.enabled injector
          && policy.Policies.Spec.placement = Policies.Spec.First_touch
          && app.Workloads.App.page_release_period <> None
        then begin
          let q =
            Guest.Pv_queue.create ~frames:domain.Xen.Domain.mem_frames
              ~flush:(fun ops -> Policies.Manager.page_ops_hypercall manager ops)
              ()
          in
          Faults.Injector.install_queue injector q;
          Some q
        end
        else None
  in
  (* Policy installation and boot population are not application time. *)
  Xen.Domain.reset_account domain;
  let threads = spec.Config.threads in
  let total_pages = max (threads + 1) (footprint_bytes / frame_bytes) in
  let shared_pages =
    max 1 (int_of_float (app.Workloads.App.shared_bytes_fraction *. float_of_int total_pages))
  in
  let private_pages = max 1 ((total_pages - shared_pages) / threads) in
  let vframes = shared_pages + (threads * private_pages) + 64 in
  let gib_frames = max 1 (1024 * 1024 * 1024 / frame_bytes) in
  let first_fresh = min gib_frames (domain.Xen.Domain.mem_frames / 4) in
  let pool = Guest.Pfn_pool.create ~frames:domain.Xen.Domain.mem_frames ~first_fresh () in
  let process = Guest.Process.create ~pid:1 ~vframes ~pool in
  let master_cpu = domain.Xen.Domain.vcpu_pin.(0) in
  let shared =
    build_region system pool process domain ~vfn0:0 ~pages:shared_pages
      ~weights:(zipf_weights ~pages:shared_pages ~s:app.Workloads.App.zipf_s)
      ~cpu:master_cpu ~nodes
  in
  let privates =
    Array.init threads (fun t ->
        build_region system pool process domain
          ~vfn0:(shared_pages + (t * private_pages))
          ~pages:private_pages
          ~weights:(uniform_weights ~pages:private_pages)
          ~cpu:domain.Xen.Domain.vcpu_pin.(t) ~nodes)
  in
  let pfn_owner = Array.make domain.Xen.Domain.mem_frames (-1) in
  let pfn_slot = Array.make domain.Xen.Domain.mem_frames 0 in
  Array.iteri
    (fun i pfn ->
      pfn_owner.(pfn) <- 0;
      pfn_slot.(pfn) <- i)
    shared.pfns;
  Array.iteri
    (fun t region ->
      Array.iteri
        (fun i pfn ->
          pfn_owner.(pfn) <- t + 1;
          pfn_slot.(pfn) <- i)
        region.pfns)
    privates;
  let work =
    Workloads.App.instructions_per_thread app ~threads
      ~freq_hz:cfg.Config.machine.Numa.Machine_desc.freq_hz
  in
  {
    spec;
    domain;
    manager;
    pool;
    queue;
    process;
    shared;
    privates;
    pfn_owner;
    pfn_slot;
    sample_seen = Bytes.make shared_pages '\000';
    sample_touched = Array.make 128 0;
    sample_pfns = Array.make (128 + (8 * threads)) 0;
    sample_count = 0;
    sample_scratch = Array.make nodes 0.0;
    remaining = Array.make threads work;
    avg_lat = Array.make threads 190.0;
    finish = Array.make threads (-1.0);
    thread_node =
      Array.init threads (fun t -> Numa.Topology.node_of_cpu topo domain.Xen.Domain.vcpu_pin.(t));
    thread_dst = Array.make (threads * nodes) 0.0;
    thread_accesses = Array.make threads 0.0;
    thread_doit = Array.make threads 0.0;
    thread_cap = Array.make threads 0.0;
    thread_shared = Array.make threads 0.0;
    thread_burst = Array.make threads 0.0;
    thread_sync = Array.make threads 0.0;
    thread_total = Array.make threads 0.0;
    thread_final = Array.make threads 0.0;
    src_shared = Array.make nodes 0.0;
    shared_accesses_epoch = 0.0;
    burst_victim = -1;
    burst_source = -1;
    burst_accesses_epoch = 0.0;
    io_bytes_left = Workloads.App.disk_bytes_total app;
    sync_overhead = 0.0;
    migrations = 0;
    weighted_lat = 0.0;
    total_accesses = 0.0;
    local_accesses = 0.0;
    lat_hist = Sim.Stats.Histogram.create ();
    slo_scratch = Array.make threads 0.0;
    slo_violations = Array.make (List.length cfg.Config.slo) 0;
    active_epochs = 0;
    private_sample_cursor = 0;
    tlb_cycles_per_instr = tlb_cycles_per_instr cfg spec;
    work_per_thread = work;
    phase = 0;
    rng;
    ff_armed = false;
    ff_p2m_version = -1;
    ff_migrations = 0;
    ff_finished = 0;
    ff_rotated = false;
    ff_io = 0.0;
    ff_slo_active = false;
    ff_slo_violate = Array.make (List.length cfg.Config.slo) false;
    ff_snap =
      Array.init 2 (fun _ ->
          {
            sn_epoch = -1;
            sn_sync = Array.make threads 0.0;
            sn_doit = Array.make threads 0.0;
            sn_cap = Array.make threads 0.0;
            sn_final = Array.make threads 0.0;
            sn_total = Array.make threads 0.0;
            sn_lat = Array.make threads 0.0;
            sn_dst = Array.make (threads * nodes) 0.0;
            sn_io = 0.0;
            sn_slo_active = false;
            sn_slo_violate = Array.make (List.length cfg.Config.slo) false;
          });
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

(* Blocking events that actually halt a CPU.  Network servers wait
   several times per request (packet, locks), hence the factor; above
   ~25k halts/s wake-ups coalesce — a loaded CPU finds new work before
   it can halt — which bounds the exposure. *)
let blocking_events_per_s app =
  let base = Workloads.App.sync_events_per_s app in
  let scaled = if app.Workloads.App.net_service then 3.0 *. base else base in
  Float.min 25_000.0 scaled

let epoch_sync_overhead cfg st =
  let app = st.spec.Config.app in
  let costs = costs_of_mode cfg.Config.mode in
  let events = blocking_events_per_s app *. cfg.Config.epoch in
  let primitive = if st.spec.Config.use_mcs then Guest.Sync.Mcs_spin else Guest.Sync.Futex_sleep in
  let per_event =
    match primitive with
    | Guest.Sync.Mcs_spin -> 0.0
    | Guest.Sync.Futex_sleep ->
        (2.0 *. costs.Xen.Costs.context_switch) +. wakeup_of_mode costs cfg.Config.mode
  in
  let total = events *. per_event in
  let threads = float_of_int st.spec.Config.threads in
  Float.min (0.85 *. cfg.Config.epoch) (total /. threads)

(* Distribute one thread's epoch accesses over destination nodes.
   Writes only vCPU [t]'s row and [t]-indexed slots; the shared-region
   and burst totals are folded in later by [reduce_epoch_traffic]. *)
let distribute_thread st t ~accesses =
  let app = st.spec.Config.app in
  let nodes = Array.length st.src_shared in
  let dst = st.thread_dst in
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
    +. (acc_shared *. st.shared.replicated_local)
    +. (acc_own *. st.privates.(t).replicated_local);
  for n = 0 to nodes - 1 do
    dst.(base + n) <- dst.(base + n) +. (acc_shared *. st.shared.node_weight.(n));
    dst.(base + n) <- dst.(base + n) +. (acc_own *. st.privates.(t).node_weight.(n))
  done;
  if acc_burst > 0.0 && st.burst_victim >= 0 then begin
    let victim = st.privates.(st.burst_victim) in
    for n = 0 to nodes - 1 do
      dst.(base + n) <- dst.(base + n) +. (acc_burst *. victim.node_weight.(n))
    done;
    st.thread_burst.(t) <- acc_burst
  end;
  st.thread_shared.(t) <- acc_shared

(* The compute half of the epoch: capacity, instructions and the
   destination spread of every vCPU.  Everything written is indexed by
   the vCPU; everything read ([occupancy], the region weights, the
   epoch parameters) is fixed for the epoch.  Under fault injection
   the stall draw consumes the injector's shared stream in vCPU
   order. *)
let epoch_compute_kernel st ~injector ~faults_on ~occupancy ~oh ~carrefour_tax ~mr ~freq
    ~epoch_len ~threads =
  for t = 0 to threads - 1 do
    if st.finish.(t) < 0.0 then begin
      if faults_on && Faults.Injector.vcpu_stalls injector then
        (* Injected stall: the vCPU makes no progress this epoch; the
           lost time shows up as blocked time. *)
        st.thread_sync.(t) <- epoch_len
      else begin
        let pcpu = st.domain.Xen.Domain.vcpu_pin.(t) in
        let share = 1.0 /. float_of_int (max 1 occupancy.(pcpu)) in
        let avail = (epoch_len -. oh) *. share *. carrefour_tax in
        st.thread_sync.(t) <- oh;
        let cpi = 1.0 +. (mr *. st.avg_lat.(t)) +. st.tlb_cycles_per_instr in
        let cap = avail *. freq /. cpi in
        if cap > 0.0 then begin
          let doit = Float.min st.remaining.(t) cap in
          st.thread_doit.(t) <- doit;
          st.thread_cap.(t) <- cap;
          let accesses = doit *. mr in
          st.thread_accesses.(t) <- accesses;
          distribute_thread st t ~accesses
        end
      end
    end
  done

(* Fixed-order reduction over the kernel's per-vCPU slots: vCPU 0
   first, always. *)
let reduce_epoch_traffic st ~threads ~accesses_acc =
  for t = 0 to threads - 1 do
    if st.finish.(t) < 0.0 then st.sync_overhead <- st.sync_overhead +. st.thread_sync.(t);
    if st.thread_cap.(t) > 0.0 then begin
      let acc_shared = st.thread_shared.(t) in
      st.src_shared.(st.thread_node.(t)) <- st.src_shared.(st.thread_node.(t)) +. acc_shared;
      st.shared_accesses_epoch <- st.shared_accesses_epoch +. acc_shared;
      if st.thread_burst.(t) > 0.0 then
        st.burst_accesses_epoch <- st.burst_accesses_epoch +. st.thread_burst.(t);
      accesses_acc := !accesses_acc +. st.thread_accesses.(t)
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

(* Bitwise equality of two float arrays — the witness comparisons must
   distinguish last-ulp neighbours, which [=] on floats does, but
   bit-comparison also makes the NaN/negative-zero cases unambiguous. *)
let arrays_bits_equal a b =
  let ok = ref true in
  let n = Array.length a in
  for i = 0 to n - 1 do
    if !ok && Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then ok := false
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
  st.ff_migrations <- st.migrations;
  (let fin = ref 0 in
   Array.iter (fun f -> if f >= 0.0 then incr fin) st.finish;
   st.ff_finished <- !fin);
  let app = st.spec.Config.app in
  (* algorithmic phases: as the run progresses, the hot front of the
     shared region moves; static placements do not notice, dynamic
     policies must chase *)
  if app.Workloads.App.phases > 1 then begin
    let total = st.work_per_thread *. float_of_int st.spec.Config.threads in
    let left = Array.fold_left ( +. ) 0.0 st.remaining in
    let frac = Float.max 0.0 (1.0 -. (left /. total)) in
    let phase =
      min (app.Workloads.App.phases - 1)
        (int_of_float (frac *. float_of_int app.Workloads.App.phases))
    in
    if phase <> st.phase then begin
      st.phase <- phase;
      st.ff_rotated <- true;
      let pages = Array.length st.shared.pfns in
      rotate_region st.shared
        ~shift:(phase * (pages / app.Workloads.App.phases) mod pages)
        ~read_fraction:app.Workloads.App.read_fraction
    end
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
    let bytes = Float.min st.io_bytes_left (app.Workloads.App.disk_mb_s *. 1e6 *. cfg.Config.epoch) in
    st.io_bytes_left <- st.io_bytes_left -. bytes;
    st.ff_io <- bytes;
    match cfg.Config.mode with
    | Config.Linux ->
        let node = st.thread_node.(0) in
        node_demand.(node) <- node_demand.(node) +. bytes;
        Numa.Counters.record_accesses counters ~src:bus_node ~dst:node
          ~count:(bytes /. access_bytes) ~bytes_per_access:access_bytes
    | Config.Xen | Config.Xen_plus ->
        let home = st.domain.Xen.Domain.home_nodes in
        let share = bytes /. float_of_int (Array.length home) in
        Array.iter
          (fun node ->
            node_demand.(node) <- node_demand.(node) +. share;
            Numa.Counters.record_accesses counters ~src:bus_node ~dst:node
              ~count:(share /. access_bytes) ~bytes_per_access:access_bytes)
          home
  end

(* Hot-page samples for Carrefour: the top of the shared region's
   popularity distribution, a rotating window of each thread's private
   pages, and — during a burst — the victim's hammered pages.
   Samples are pushed straight into the system component's heat table
   (which copies on first sight, accumulates in place after) from one
   reusable scratch array; the fed pfns are remembered in
   [st.sample_pfns] for the placement refresh. *)
let feed_samples st sys =
  let nodes = Array.length st.src_shared in
  let scratch = st.sample_scratch in
  let read_fraction = st.spec.Config.app.Workloads.App.read_fraction in
  st.sample_count <- 0;
  let push pfn =
    Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses:scratch
      ~read_fraction;
    st.sample_pfns.(st.sample_count) <- pfn;
    st.sample_count <- st.sample_count + 1
  in
  let shared_total = st.shared_accesses_epoch in
  if shared_total > 0.0 then begin
    let pages = Array.length st.shared.pfns in
    (* IBS-style sampling: pages are drawn with probability proportional
       to their access frequency, so hot pages dominate the table but
       every accessed page is eventually observed. *)
    let seen = st.sample_seen in
    let touched = ref 0 in
    let emit rank =
      let i = (st.shared.shift + rank) mod pages in
      if Bytes.get seen i = '\000' then begin
        Bytes.set seen i '\001';
        st.sample_touched.(!touched) <- i;
        incr touched;
        let w = st.shared.weights.(rank) in
        for n = 0 to nodes - 1 do
          scratch.(n) <- st.src_shared.(n) *. w
        done;
        push st.shared.pfns.(i)
      end
    in
    for rank = 0 to min 32 pages - 1 do
      emit rank
    done;
    let app = st.spec.Config.app in
    for _ = 1 to min 96 pages do
      emit (Sim.Rng.zipf st.rng ~n:pages ~s:app.Workloads.App.zipf_s)
    done;
    for j = 0 to !touched - 1 do
      Bytes.set seen st.sample_touched.(j) '\000'
    done
  end;
  let threads = Array.length st.privates in
  for t = 0 to threads - 1 do
    if st.finish.(t) < 0.0 then begin
      let region = st.privates.(t) in
      let pages = Array.length region.pfns in
      let per_page =
        (* Uniform accesses of the owner over its private pages. *)
        let app = st.spec.Config.app in
        let own = 1.0 -. app.Workloads.App.master_bias in
        own *. st.thread_accesses.(t) /. float_of_int pages
      in
      let k = min 8 pages in
      for j = 0 to k - 1 do
        let i = (st.private_sample_cursor + j) mod pages in
        Array.fill scratch 0 nodes 0.0;
        scratch.(st.thread_node.(t)) <- per_page;
        (* During a burst the source thread hammers the victim's pages:
           a single dominant remote node, Carrefour's migration bait. *)
        if t = st.burst_victim && st.burst_source >= 0 then
          scratch.(st.thread_node.(st.burst_source)) <-
            scratch.(st.thread_node.(st.burst_source))
            +. (st.burst_accesses_epoch /. float_of_int pages *. 8.0);
        push region.pfns.(i)
      done
    end
  done;
  st.private_sample_cursor <- st.private_sample_cursor + 8

(* Refresh cached placement after Carrefour migrations and
   replications, over the pages fed this period. *)
let refresh_placement st =
  let read_fraction = st.spec.Config.app.Workloads.App.read_fraction in
  let carrefour = Policies.Manager.carrefour st.manager in
  for s = 0 to st.sample_count - 1 do
    let pfn = st.sample_pfns.(s) in
    (let owner = if pfn < Array.length st.pfn_owner then st.pfn_owner.(pfn) else -1 in
      if owner >= 0 then
        match Policies.Manager.node_of_pfn st.manager pfn with
        | None -> ()
        | Some node ->
            let i = st.pfn_slot.(pfn) in
            let region = if owner = 0 then st.shared else st.privates.(owner - 1) in
            let w = eff_weight region i in
            (* Replication status change: the read share of the
               page's popularity moves between the home node and the
               everywhere-local pool. *)
            let replicated_now =
              match carrefour with
              | Some sys -> Policies.Carrefour.System_component.is_replicated sys pfn
              | None -> false
            in
            let was = Bytes.get region.replicated i <> '\000' in
            if replicated_now && not was then begin
              let moved = w *. read_fraction in
              region.node_weight.(region.page_node.(i)) <-
                region.node_weight.(region.page_node.(i)) -. moved;
              region.replicated_local <- region.replicated_local +. moved;
              Bytes.set region.replicated i '\001'
            end
            else if was && not replicated_now then begin
              let moved = w *. read_fraction in
              region.node_weight.(region.page_node.(i)) <-
                region.node_weight.(region.page_node.(i)) +. moved;
              region.replicated_local <- region.replicated_local -. moved;
              Bytes.set region.replicated i '\000'
            end;
            let old_node = region.page_node.(i) in
            if old_node <> node then begin
              let moved = if replicated_now then w *. (1.0 -. read_fraction) else w in
              region.node_weight.(old_node) <- region.node_weight.(old_node) -. moved;
              region.node_weight.(node) <- region.node_weight.(node) +. moved;
              region.page_node.(i) <- node;
              st.migrations <- st.migrations + 1
            end)
  done

(* Re-resolve every region page's node through the P2M: while an
   evacuation drain is in flight placement moves wholesale, far beyond
   what the per-sample Carrefour refresh can track, and traffic routed
   at the stale (collapsing) node would never recover. *)
let refresh_region st region =
  let read_fraction = st.spec.Config.app.Workloads.App.read_fraction in
  let nodes = Array.length region.node_weight in
  Array.fill region.node_weight 0 nodes 0.0;
  region.replicated_local <- 0.0;
  Array.iteri
    (fun i pfn ->
      (match Policies.Manager.node_of_pfn st.manager pfn with
      | Some node -> region.page_node.(i) <- node
      | None -> ());
      let node = region.page_node.(i) in
      let w = eff_weight region i in
      if Bytes.get region.replicated i <> '\000' then begin
        region.node_weight.(node) <- region.node_weight.(node) +. (w *. (1.0 -. read_fraction));
        region.replicated_local <- region.replicated_local +. (w *. read_fraction)
      end
      else region.node_weight.(node) <- region.node_weight.(node) +. w)
    region.pfns

let refresh_regions st =
  refresh_region st st.shared;
  Array.iter (refresh_region st) st.privates

(* Targeted variant for sparse placement changes (the UE remap): move
   one page's popularity between nodes. *)
let update_page_node st pfn =
  if pfn < Array.length st.pfn_owner then begin
    let owner = st.pfn_owner.(pfn) in
    if owner >= 0 then
      match Policies.Manager.node_of_pfn st.manager pfn with
      | None -> ()
      | Some node ->
          let region = if owner = 0 then st.shared else st.privates.(owner - 1) in
          let i = st.pfn_slot.(pfn) in
          let old_node = region.page_node.(i) in
          if old_node <> node then begin
            let read_fraction = st.spec.Config.app.Workloads.App.read_fraction in
            let w = eff_weight region i in
            let moved =
              if Bytes.get region.replicated i <> '\000' then w *. (1.0 -. read_fraction)
              else w
            in
            region.node_weight.(old_node) <- region.node_weight.(old_node) -. moved;
            region.node_weight.(node) <- region.node_weight.(node) +. moved;
            region.page_node.(i) <- node
          end
  end

(* ------------------------------------------------------------------ *)
(* Completion accounting                                               *)
(* ------------------------------------------------------------------ *)

let release_churn_overhead cfg st ~active_seconds =
  match (cfg.Config.mode, st.spec.Config.policy.Policies.Spec.placement) with
  | (Config.Xen | Config.Xen_plus), Policies.Spec.First_touch -> (
      match st.spec.Config.app.Workloads.App.page_release_period with
      | None -> 0.0
      | Some period ->
          let costs = Xen.Costs.default in
          let per_release =
            (costs.Xen.Costs.hypercall_entry /. 128.0)
            +. costs.Xen.Costs.page_op_send +. costs.Xen.Costs.page_invalidate
            +. costs.Xen.Costs.hypervisor_fault +. costs.Xen.Costs.page_map
          in
          active_seconds /. period *. per_release /. float_of_int st.spec.Config.threads)
  | _ -> 0.0

let vm_degradation st =
  let d = Policies.Manager.degrade st.manager in
  {
    Result.migrate_retries = d.Policies.Manager.migrate_retries;
    deferred = d.Policies.Manager.deferred;
    drained = d.Policies.Manager.drained;
    fallback_maps = d.Policies.Manager.fallback_maps;
    breaker_trips = d.Policies.Manager.breaker_trips;
    breaker_level = d.Policies.Manager.breaker_level;
    lost_batches = d.Policies.Manager.lost_batches;
    reconciled = d.Policies.Manager.reconciled;
    backoff_time = d.Policies.Manager.backoff_time;
    ecc_ce = d.Policies.Manager.ecc_ce;
    ecc_ue = d.Policies.Manager.ecc_ue;
    offlined = d.Policies.Manager.offlined;
    evacuated = d.Policies.Manager.evacuated;
    evac_epochs = d.Policies.Manager.evac_epochs;
  }

let vm_result cfg system st =
  let app = st.spec.Config.app in
  let threads = float_of_int st.spec.Config.threads in
  let scale = float_of_int (Memory.Machine.page_scale system.Xen.System.machine) in
  let compute_time = Array.fold_left Float.max 0.0 st.finish in
  let account = st.domain.Xen.Domain.account in
  let virt_overhead =
    ((account.Xen.Domain.fault_time *. scale)
    +. account.Xen.Domain.hypercall_time +. account.Xen.Domain.migrate_time
    +. account.Xen.Domain.pt_replica_time)
    /. threads
  in
  let path = io_path cfg.Config.mode st.spec.Config.policy in
  let io_overhead =
    if Workloads.App.uses_disk app then begin
      let costs = costs_of_mode cfg.Config.mode in
      let requests =
        Workloads.App.disk_bytes_total app /. float_of_int app.Workloads.App.io_block_bytes
      in
      requests *. io_request_overhead costs path
    end
    else 0.0
  in
  let release_overhead = release_churn_overhead cfg st ~active_seconds:compute_time in
  let p2m = st.domain.Xen.Domain.p2m in
  let mapped = Xen.P2m.mapped_count p2m in
  let avg_latency_cycles =
    if st.total_accesses > 0.0 then st.weighted_lat /. st.total_accesses else 0.0
  in
  let latency =
    let h = st.lat_hist in
    if Sim.Stats.Histogram.count h = 0 then Result.no_latency
    else
      {
        Result.samples = Sim.Stats.Histogram.count h;
        lat_mean = Sim.Stats.Histogram.mean h;
        p50 = Sim.Stats.Histogram.percentile h 50.0;
        p95 = Sim.Stats.Histogram.percentile h 95.0;
        p99 = Sim.Stats.Histogram.percentile h 99.0;
        p999 = Sim.Stats.Histogram.percentile h 99.9;
        lat_max = Sim.Stats.Histogram.max h;
      }
  in
  let slo =
    List.mapi
      (fun i (metric, target) ->
        let value =
          match metric with
          | "mean" -> avg_latency_cycles
          | "p50" -> latency.Result.p50
          | "p95" -> latency.Result.p95
          | "p99" -> latency.Result.p99
          | "p999" -> latency.Result.p999
          | m -> invalid_arg ("Runner: unknown SLO metric " ^ m)
        in
        {
          Result.metric;
          target;
          value;
          violation_epochs = st.slo_violations.(i);
          active_epochs = st.active_epochs;
          burn_rate =
            (if st.active_epochs = 0 then 0.0
             else float_of_int st.slo_violations.(i) /. float_of_int st.active_epochs);
          violated = value > target;
        })
      cfg.Config.slo
  in
  {
    Result.app_name = app.Workloads.App.name;
    policy = Policies.Spec.name st.spec.Config.policy;
    completion = compute_time +. io_overhead +. virt_overhead +. release_overhead;
    compute_time;
    io_overhead;
    sync_overhead = st.sync_overhead;
    virt_overhead;
    release_overhead;
    faults = account.Xen.Domain.fault_count;
    migrations = st.migrations;
    avg_latency_cycles;
    local_fraction =
      (if st.total_accesses > 0.0 then st.local_accesses /. st.total_accesses else 0.0);
    superpages = Xen.P2m.superpage_count p2m;
    superpage_fraction =
      (if mapped > 0 then float_of_int (Xen.P2m.superpage_frames p2m) /. float_of_int mapped
       else 0.0);
    splinters = Xen.P2m.splinter_count p2m;
    promotes = Xen.P2m.promote_count p2m;
    superpage_migrates = (Policies.Manager.stats st.manager).Policies.Manager.superpage_migrates;
    walk_cycles_per_instr = st.tlb_cycles_per_instr;
    pt_replica_updates =
      (match Policies.Manager.pt st.manager with
      | Some pt -> Xen.Pt.replica_updates pt
      | None -> 0);
    pt_replica_invalidations =
      (match Policies.Manager.pt st.manager with
      | Some pt -> Xen.Pt.replica_invalidations pt
      | None -> 0);
    pt_replica_time = account.Xen.Domain.pt_replica_time;
    latency;
    slo;
    degradation = vm_degradation st;
  }

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let run (cfg : Config.t) =
  let scale = Config.page_scale cfg in
  let machine_desc = cfg.Config.machine in
  let topo = machine_desc.Numa.Machine_desc.topology () in
  let costs = costs_of_mode cfg.Config.mode in
  let system = Xen.System.create ~page_scale:scale ~costs topo in
  (* One trace stream per simulated run, labelled by a pure function of
     the run configuration: labels (not OS worker identities) are the
     merge keys, so the merged trace is byte-identical at any --jobs. *)
  let obs_stream =
    match Obs.Trace.current () with
    | None -> None
    | Some session ->
        let vm_desc (vm : Config.vm_spec) =
          Printf.sprintf "%s/%s%s%s%s%s" vm.Config.app.Workloads.App.name
            (Policies.Spec.name vm.Config.policy)
            (if vm.Config.use_mcs then "/mcs" else "")
            (if vm.Config.superpages then "/sp" else "")
            (if vm.Config.pt_walk then "/ptw" else "")
            (if vm.Config.replicate_pt then "/rep" else "")
        in
        let label =
          Printf.sprintf "%s|%s|seed=%d" (Config.mode_name cfg.Config.mode)
            (String.concat "," (List.map vm_desc cfg.Config.vms))
            cfg.Config.seed
        in
        Some (Obs.Trace.stream session ~label)
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
  let faults_on = Faults.Injector.enabled injector in
  let states = List.map (setup_vm cfg system injector root_rng) cfg.Config.vms in
  (* Node-fail targets are drawn from the union of the guests' home
     nodes, so an injected failure always lands where memory lives.
     Safe after setup: at epoch -1 nothing is armed, so boot drew
     nothing from the injector's stream. *)
  (let seen = Array.make (Numa.Topology.node_count topo) false in
   List.iter
     (fun st -> Array.iter (fun n -> seen.(n) <- true) st.domain.Xen.Domain.home_nodes)
     states;
   let candidates =
     Array.of_list
       (List.filter (fun n -> seen.(n)) (List.init (Array.length seen) Fun.id))
   in
   Faults.Injector.assign_node_targets injector ~candidates
     ~nodes:(Numa.Topology.node_count topo) ());
  (match obs_stream with
  | None -> ()
  | Some _ ->
      List.iter
        (fun st ->
          match st.queue with
          | Some q -> Guest.Pv_queue.set_obs q ~domain:st.domain.Xen.Domain.id obs_stream
          | None -> ())
        states);
  let latency = machine_desc.Numa.Machine_desc.latency in
  let freq = machine_desc.Numa.Machine_desc.freq_hz in
  let nodes = Numa.Topology.node_count topo in
  let bus_node =
    match machine_desc.Numa.Machine_desc.pci_bus_nodes with
    | _ :: n :: _ -> n
    | [ n ] -> n
    | [] -> 0
  in
  let epoch_len = cfg.Config.epoch in
  let now = ref 0.0 in
  let epochs = ref 0 in
  let epoch_accesses = Array.make (List.length states) 0.0 in
  (* A controller's sustained random-access throughput is well below
     its streaming peak (bank cycle time, row misses): 62% of the
     13 GiB/s plate number, as derived by the request-level simulator
     (Microsim.Memsim.random_access_efficiency). *)
  let controller_capacity =
    0.62 *. Numa.Topology.controller_gib_per_s topo *. (1024.0 ** 3.0) *. epoch_len
  in
  let node_demand = Array.make nodes 0.0 in
  let node_scale = Array.make nodes 1.0 in
  (* RAS state: per-node effective capacity and bandwidth factor (both
     move only under a [node_fail] plan) and the failing state seen
     last epoch, for transition detection. *)
  let node_capacity = Array.make nodes controller_capacity in
  let bw_factor = Array.make nodes 1.0 in
  let node_was_failing = Array.make nodes false in
  (* Per-epoch memo of the (src, dst) memory latency: topology distance
     is static and route saturation is a last-epoch snapshot, so within
     one epoch every thread pair sharing (src, dst) sees the same
     cycles.  Filled eagerly each epoch — the values are a pure
     function of the topology and the counter snapshot, so eager and
     lazy fills agree bit for bit, and the latency kernel reads it
     without a fill check per thread pair. *)
  let lat_memo = Array.make (nodes * nodes) 0.0 in
  let occupancy = Array.make (Array.length system.Xen.System.pcpu_load) 0 in
  let dom0_active = ref 0 in
  (* One dom0 vCPU shuttles roughly 150 MB/s of pv I/O. *)
  let dom0_core_mb_s = 150.0 in
  let sched_rng = Sim.Rng.split root_rng in
  let any_unpinned = List.exists (fun st -> not st.spec.Config.pinned) states in
  let st_of_domain id =
    List.find (fun st -> st.domain.Xen.Domain.id = id) states
  in
  let running () = List.exists vm_running states in
  (* Steady-state fast-forward.  Disqualified for the whole run when
     the escape hatch is pulled, under fault injection (the stall draw
     consumes a shared stream inside the kernel), with unpinned vCPUs
     (the credit scheduler draws every epoch) or with an observer (it
     reads live per-epoch telemetry).  Everything else is decided per
     epoch: replay only while every running VM armed itself at the end
     of a full epoch AND this epoch's pass A stayed clean AND the
     horizon says no boundary work (Carrefour feed, promotion scan,
     fault window) is due. *)
  let ff_active =
    cfg.Config.fast_forward && (not faults_on) && (not any_unpinned)
    && cfg.Config.observer = None
  in
  let ff_until = ref 0 in
  let ff_replayed = ref 0 in
  (* Armed at the end of epoch [e], the replay may serve epochs
     strictly below this horizon: the next multiple of 10 when any VM
     runs Carrefour (user-component feed) or P2M superpages (promotion
     scan), the next epoch with a fault window armed (belt and braces
     — fault runs never fast-forward), and a conservative estimate of
     the earliest thread completion.  The per-epoch [replay_guard] is
     the safety net; the completion clause only saves it work. *)
  let skip_horizon e =
    let h = ref cfg.Config.max_epochs in
    let cut v = if v < !h then h := v in
    if
      List.exists
        (fun st ->
          vm_running st
          && (Option.is_some (Policies.Manager.carrefour st.manager)
             || Policies.Manager.superpages_enabled st.manager))
        states
    then cut (e - (e mod 10) + 10);
    (match Faults.Injector.next_armed_epoch injector ~after:(e + 1) with
    | Some a -> cut a
    | None -> ());
    List.iter
      (fun st ->
        if vm_running st then
          for t = 0 to st.spec.Config.threads - 1 do
            if st.finish.(t) < 0.0 && st.thread_final.(t) > 0.0 then
              cut
                (e + 1
                + int_of_float
                    (Float.min 1e9
                       (Float.max 0.0
                          ((st.remaining.(t) -. st.thread_cap.(t)) /. st.thread_final.(t)))))
          done)
      states;
    !h
  in
  while running () && !epochs < cfg.Config.max_epochs do
    (match obs_stream with
    | None -> ()
    | Some stream ->
        (* Stamp subsequent events with this epoch's virtual time. *)
        Obs.Stream.set_time stream !now;
        Obs.Stream.emit ~arg:!epochs stream Obs.Event.Epoch_boundary;
        (* Walk/replica summaries, one per domain per epoch (the raw
           update stream would swamp the ring): the walk CPI term in
           milli-cycles, and the cumulative per-mirror counters.
           Emitted only when the feature is on, so every other run's
           trace is byte-identical to the pre-walk-model engine. *)
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
          states);
    Faults.Injector.set_epoch injector !epochs;
    if faults_on then begin
      (* Node RAS: mirror the injector's failing state into the
         topology mask.  At a failing transition the node's machine
         frames are retired immediately (free ones now, mapped ones
         when freed) and every domain starts draining its resident
         frames; a recovered node rejoins the mask and pool. *)
      for n = 0 to nodes - 1 do
        bw_factor.(n) <- Faults.Injector.node_bandwidth_factor injector ~node:n;
        node_capacity.(n) <- controller_capacity *. Float.max 0.01 bw_factor.(n);
        let failing = Faults.Injector.node_failing injector ~node:n in
        if failing && not node_was_failing.(n) then begin
          node_was_failing.(n) <- true;
          Numa.Topology.set_node_online topo n false;
          ignore (Memory.Machine.offline_node system.Xen.System.machine n);
          List.iter (fun st -> Policies.Manager.request_evacuation st.manager ~node:n) states
        end
        else if (not failing) && node_was_failing.(n) then begin
          node_was_failing.(n) <- false;
          Numa.Topology.set_node_online topo n true;
          ignore (Memory.Machine.online_node system.Xen.System.machine n);
          List.iter (fun st -> Policies.Manager.cancel_evacuation st.manager ~node:n) states
        end
      done;
      (* ECC: per-domain draws, in VM order. *)
      List.iter
        (fun st ->
          if vm_running st then
            List.iter
              (function
                | Faults.Injector.Ce pfn -> Policies.Manager.handle_ecc_ce st.manager ~pfn
                | Faults.Injector.Ue pfn ->
                    Policies.Manager.handle_ecc_ue st.manager ~pfn;
                    update_page_node st pfn)
              (Faults.Injector.ecc_events injector ~frames:st.domain.Xen.Domain.mem_frames))
        states
    end;
    (* Pass A runs for every epoch, replayed or not: the phase check
       and burst draw keep every RNG stream position identical to the
       naive loop's, and the snapshots feed the arming check. *)
    let pass_a_clean = ref true in
    List.iter
      (fun st ->
        if vm_running st then begin
          epoch_pass_a st;
          if st.ff_rotated || st.burst_victim >= 0 then pass_a_clean := false
        end)
      states;
    let replay =
      ff_active && !pass_a_clean
      && !epochs < !ff_until
      && List.for_all
           (fun st ->
             (not (vm_running st))
             || (st.ff_armed
                &&
                (* The capture whose parity matches this epoch is the
                   one the replay would apply. *)
                let snap = st.ff_snap.(!epochs land 1) in
                (* Steady disk DMA replays too, but only while the pool
                   can still serve a full-rate epoch; the partial final
                   epoch (and the first post-I/O epoch) must run live. *)
                (if snap.sn_io > 0.0 then st.io_bytes_left >= snap.sn_io
                 else st.io_bytes_left <= 0.0)
                && replay_guard ~finish:st.finish ~doit:snap.sn_doit ~remaining:st.remaining
                     ~cap:snap.sn_cap ~final:snap.sn_final))
           states
    in
    if replay then begin
      (* Delta replay: every float accumulation below re-performs the
         additions the full kernels would have performed, on the same
         frozen per-thread values, in the same order — so the run's
         results and traces are bit-identical to the naive loop (the
         engine.ff suite checks exactly that).  Scratch state the full
         path rebuilds from scratch each epoch (node_demand,
         node_scale, lat_memo, src_shared...) is left stale: only full
         epochs read it, and each starts by refilling it. *)
      incr ff_replayed;
      let parity = !epochs land 1 in
      Obs.Profile.span Obs.Profile.Ff_replay (fun () ->
          List.iter
            (fun st ->
              if vm_running st then begin
                let snap = st.ff_snap.(parity) in
                let threads = st.spec.Config.threads in
                for t = 0 to threads - 1 do
                  if st.finish.(t) < 0.0 then
                    st.sync_overhead <- st.sync_overhead +. snap.sn_sync.(t);
                  if snap.sn_doit.(t) > 0.0 then
                    st.remaining.(t) <- st.remaining.(t) -. snap.sn_final.(t)
                done
              end)
            states;
          (* Steady-phase disk DMA: the guard proved this epoch moves
             the same full-rate byte count as the captured one, so the
             live code recomputes the identical transfer — decrement,
             counter records and all — in the full path's VM order
             (I/O is committed before the thread traffic there too). *)
          List.iter
            (fun st ->
              if vm_running st && st.ff_snap.(parity).sn_io > 0.0 then
                disk_traffic cfg st counters ~bus_node ~node_demand)
            states;
          (* Commit the captured realized traffic to the hardware
             counters — the verbatim full-path loop, VM-major like the
             original, so the per-(src,dst) accumulation order is
             unchanged. *)
          List.iter
            (fun st ->
              if vm_running st then begin
                let snap = st.ff_snap.(parity) in
                let threads = st.spec.Config.threads in
                for t = 0 to threads - 1 do
                  if snap.sn_doit.(t) > 0.0 then begin
                    let base = t * nodes in
                    let src = st.thread_node.(t) in
                    for n = 0 to nodes - 1 do
                      if snap.sn_dst.(base + n) > 0.0 then
                        Numa.Counters.record_accesses counters ~src ~dst:n
                          ~count:snap.sn_dst.(base + n) ~bytes_per_access:access_bytes
                    done
                  end
                done
              end)
            states;
          Numa.Counters.end_epoch counters ~duration:epoch_len;
          (* Latency reduction replay: identical adds from the captured
             per-thread totals and latencies.  Consecutive bitwise-equal
             samples enter the histogram through one [add_n] — the sums
             it updates see the very same addition sequence. *)
          List.iter
            (fun st ->
              if vm_running st then begin
                let snap = st.ff_snap.(parity) in
                let threads = st.spec.Config.threads in
                let run_v = ref 0.0 in
                let run_n = ref 0 in
                for t = 0 to threads - 1 do
                  if snap.sn_total.(t) > 0.0 then begin
                    let total = snap.sn_total.(t) in
                    let lat = snap.sn_lat.(t) in
                    st.weighted_lat <- st.weighted_lat +. (total *. lat);
                    st.total_accesses <- st.total_accesses +. total;
                    st.local_accesses <-
                      st.local_accesses +. snap.sn_dst.((t * nodes) + st.thread_node.(t));
                    if !run_n > 0 && Int64.bits_of_float lat = Int64.bits_of_float !run_v then
                      incr run_n
                    else begin
                      if !run_n > 0 then Sim.Stats.Histogram.add_n st.lat_hist !run_v !run_n;
                      run_v := lat;
                      run_n := 1
                    end
                  end
                done;
                if !run_n > 0 then Sim.Stats.Histogram.add_n st.lat_hist !run_v !run_n;
                (* SLO accounting replay: under the witnessed cycle the
                   epoch's metric values — hence the captured verdicts —
                   are what the full path would recompute. *)
                if snap.sn_slo_active then begin
                  st.active_epochs <- st.active_epochs + 1;
                  Array.iteri
                    (fun i v -> if v then st.slo_violations.(i) <- st.slo_violations.(i) + 1)
                    snap.sn_slo_violate
                end;
                (* Keep the one live cross-epoch input phase-correct:
                   the next full epoch's compute kernel reads
                   [avg_lat], which must hold this (replayed) epoch's
                   values, not the last full epoch's. *)
                Array.blit snap.sn_lat 0 st.avg_lat 0 threads
              end)
            states)
    end
    else begin
    Array.fill node_demand 0 nodes 0.0;
    (* Credit-scheduler accounting period: rebalance unpinned vCPUs
       onto idle pCPUs.  The vCPU moves; its memory does not — exactly
       the hazard the paper's introduction describes for guest-visible
       NUMA topologies. *)
    if any_unpinned then begin
      let domains = List.map (fun st -> st.domain) states in
      let movable (d : Xen.Domain.t) = not (st_of_domain d.Xen.Domain.id).spec.Config.pinned in
      let active (d : Xen.Domain.t) v = (st_of_domain d.Xen.Domain.id).finish.(v) < 0.0 in
      let migrations = Xen.Sched.balance topo ~rng:sched_rng ~domains ~movable ~active in
      List.iter
        (fun (m : Xen.Sched.migration) ->
          let st = st_of_domain m.Xen.Sched.domain_id in
          st.thread_node.(m.Xen.Sched.vcpu) <- Numa.Topology.node_of_cpu topo m.Xen.Sched.to_pcpu;
          (* the migration itself costs an IPI + context switch *)
          Xen.Ipi.send st.domain ~costs:system.Xen.System.costs)
        migrations
    end;
    (* dom0 load for this epoch, from the pv I/O still flowing. *)
    (dom0_active :=
       match dom0 with
       | None -> 0
       | Some _ ->
           let pv_mb_s =
             List.fold_left
               (fun acc st ->
                 if
                   vm_running st && st.io_bytes_left > 0.0
                   && io_path cfg.Config.mode st.spec.Config.policy = `Pv
                 then acc +. st.spec.Config.app.Workloads.App.disk_mb_s
                 else acc)
               0.0 states
           in
           min 6 (int_of_float (Float.round (pv_mb_s /. dom0_core_mb_s))));
    compute_occupancy ~occ:occupancy states ~dom0 ~dom0_active:!dom0_active;
    List.iteri
      (fun vi st ->
        if vm_running st then begin
          let threads = st.spec.Config.threads in
          (* reset per-epoch traffic *)
          Array.fill st.thread_dst 0 (Array.length st.thread_dst) 0.0;
          Array.fill st.thread_accesses 0 threads 0.0;
          Array.fill st.thread_shared 0 threads 0.0;
          Array.fill st.thread_burst 0 threads 0.0;
          Array.fill st.thread_sync 0 threads 0.0;
          Array.fill st.src_shared 0 nodes 0.0;
          st.shared_accesses_epoch <- 0.0;
          st.burst_accesses_epoch <- 0.0;
          epoch_accesses.(vi) <- 0.0;
          let app = st.spec.Config.app in
          (* Track the live superpage fraction (splinters and promotes
             move it); non-superpage runs keep the boot-time constant
             bit for bit.  Under --pt-walk the radix model reprices the
             walk from the page tables' current placement instead. *)
          (match Policies.Manager.pt st.manager with
          | Some pt when st.spec.Config.pt_walk ->
              st.tlb_cycles_per_instr <-
                tlb_cycles_per_instr_radix cfg st.spec st.domain ~pt
                  ~thread_node:st.thread_node ~topo ~latency
          | Some _ | None ->
              if Policies.Manager.superpages_enabled st.manager then
                st.tlb_cycles_per_instr <- tlb_cycles_per_instr_dynamic cfg st.spec st.domain);
          let oh = epoch_sync_overhead cfg st in
          (* Carrefour's continuous hardware-counter sampling is not
             free: the paper observes it slightly degrades applications
             it cannot help. *)
          let carrefour_tax =
            match Policies.Manager.carrefour st.manager with Some _ -> 0.98 | None -> 1.0
          in
          let mr = app.Workloads.App.miss_rate in
          Array.fill st.thread_doit 0 threads 0.0;
          Array.fill st.thread_cap 0 threads 0.0;
          Obs.Profile.span Obs.Profile.Kernel_compute (fun () ->
              epoch_compute_kernel st ~injector ~faults_on ~occupancy ~oh ~carrefour_tax ~mr
                ~freq ~epoch_len ~threads);
          let accesses_acc = ref epoch_accesses.(vi) in
          Obs.Profile.span Obs.Profile.Reduce (fun () ->
              reduce_epoch_traffic st ~threads ~accesses_acc);
          epoch_accesses.(vi) <- !accesses_acc;
          disk_traffic cfg st counters ~bus_node ~node_demand
        end)
      states;
    (* Bandwidth clamp: a memory controller serves at most its
       (random-access effective) capacity per epoch.  When the demand
       on a node overflows, every thread touching that node stalls in
       proportion — the throughput collapse that makes master-slave
       patterns so expensive, beyond the latency inflation alone. *)
    List.iter
      (fun st ->
        if vm_running st then
          for t = 0 to st.spec.Config.threads - 1 do
            let base = t * nodes in
            for n = 0 to nodes - 1 do
              node_demand.(n) <- node_demand.(n) +. (st.thread_dst.(base + n) *. access_bytes)
            done
          done)
      states;
    for n = 0 to nodes - 1 do
      node_scale.(n) <-
        (if node_demand.(n) > node_capacity.(n) then node_capacity.(n) /. node_demand.(n)
         else 1.0)
    done;
    List.iter
      (fun st ->
        if vm_running st then begin
          let threads = st.spec.Config.threads in
          let now_v = !now in
          (* vCPU-local half: realized throughput, work retirement and
             finish times read only vCPU [t]'s slots (node_scale is
             fixed for the epoch). *)
          Obs.Profile.span Obs.Profile.Kernel_throughput (fun () ->
              for t = 0 to threads - 1 do
                if st.thread_doit.(t) > 0.0 then begin
                  let base = t * nodes in
                  (* A sequential access stream advances at the pace of
                     its most throttled destination. *)
                  let realized = ref 1.0 in
                  for n = 0 to nodes - 1 do
                    if st.thread_dst.(base + n) > 1e-9 && node_scale.(n) < !realized then
                      realized := node_scale.(n)
                  done;
                  let realized = !realized in
                  let final = st.thread_doit.(t) *. realized in
                  (* Captured for the fast-forward: the in-place
                     [*. realized] scaling below loses [final]. *)
                  st.thread_final.(t) <- final;
                  st.remaining.(t) <- st.remaining.(t) -. final;
                  if st.remaining.(t) <= 0.0 then
                    st.finish.(t) <-
                      now_v
                      +. (epoch_len
                         *. (final /. Float.max 1.0 (st.thread_cap.(t) *. realized)));
                  if realized < 1.0 then begin
                    st.thread_accesses.(t) <- st.thread_accesses.(t) *. realized;
                    for n = 0 to nodes - 1 do
                      st.thread_dst.(base + n) <- st.thread_dst.(base + n) *. realized
                    done
                  end
                end
              done);
          (* Commit the realized traffic to the hardware counters — a
             cross-vCPU float accumulation, so vCPU order, sequential. *)
          Obs.Profile.span Obs.Profile.Reduce (fun () ->
              for t = 0 to threads - 1 do
                if st.thread_doit.(t) > 0.0 then begin
                  let base = t * nodes in
                  let src = st.thread_node.(t) in
                  for n = 0 to nodes - 1 do
                    if st.thread_dst.(base + n) > 0.0 then
                      Numa.Counters.record_accesses counters ~src ~dst:n
                        ~count:st.thread_dst.(base + n) ~bytes_per_access:access_bytes
                  done
                end
              done)
        end)
      states;
    Numa.Counters.end_epoch counters ~duration:epoch_len;
    (* latency feedback and per-thread stats *)
    for src = 0 to nodes - 1 do
      for dst = 0 to nodes - 1 do
        let hops = Numa.Topology.distance topo src dst in
        let sat = Numa.Counters.max_route_saturation counters ~src ~dst in
        (* A degraded destination controller behaves like a saturated
           one: retries and dropped bandwidth inflate latency. *)
        let sat = if faults_on then sat +. (1.0 -. bw_factor.(dst)) else sat in
        lat_memo.((src * nodes) + dst) <- Numa.Latency.mem_cycles latency ~hops ~saturation:sat
      done
    done;
    List.iter
      (fun st ->
        if vm_running st then begin
          let threads = st.spec.Config.threads in
          Obs.Profile.span Obs.Profile.Kernel_latency (fun () ->
              for t = 0 to threads - 1 do
                let base = t * nodes in
                let total = ref 0.0 in
                for n = 0 to nodes - 1 do
                  total := !total +. st.thread_dst.(base + n)
                done;
                let total = !total in
                st.thread_total.(t) <- total;
                if total > 0.0 then begin
                  let src = st.thread_node.(t) in
                  let lat = ref 0.0 in
                  for n = 0 to nodes - 1 do
                    if st.thread_dst.(base + n) > 0.0 then
                      lat :=
                        !lat
                        +. (st.thread_dst.(base + n) /. total
                           *. lat_memo.((src * nodes) + n))
                  done;
                  st.avg_lat.(t) <- !lat
                end
              done);
          Obs.Profile.span Obs.Profile.Reduce (fun () ->
              (* Sequential fixed-order reduction; also the one place
                 latency samples are recorded, so the histogram (and
                 everything derived from it) follows vCPU order. *)
              let running = ref 0 in
              let ep_wlat = ref 0.0 in
              let ep_total = ref 0.0 in
              for t = 0 to threads - 1 do
                if st.thread_total.(t) > 0.0 then begin
                  let total = st.thread_total.(t) in
                  st.weighted_lat <- st.weighted_lat +. (total *. st.avg_lat.(t));
                  st.total_accesses <- st.total_accesses +. total;
                  st.local_accesses <-
                    st.local_accesses +. st.thread_dst.((t * nodes) + st.thread_node.(t));
                  Sim.Stats.Histogram.add st.lat_hist st.avg_lat.(t);
                  st.slo_scratch.(!running) <- st.avg_lat.(t);
                  incr running;
                  ep_wlat := !ep_wlat +. (total *. st.avg_lat.(t));
                  ep_total := !ep_total +. total
                end
              done;
              (* Per-epoch SLO accounting: purely observational reads
                 of the epoch's latencies — no RNG, no traffic, no
                 trace — so a run with objectives stays bit-identical
                 to one without. *)
              st.ff_slo_active <- cfg.Config.slo <> [] && !running > 0;
              if st.ff_slo_active then begin
                st.active_epochs <- st.active_epochs + 1;
                let samples = Array.sub st.slo_scratch 0 !running in
                List.iteri
                  (fun i (metric, target) ->
                    let value =
                      match metric with
                      | "mean" -> !ep_wlat /. !ep_total
                      | "p50" -> Sim.Stats.percentile samples 50.0
                      | "p95" -> Sim.Stats.percentile samples 95.0
                      | "p99" -> Sim.Stats.percentile samples 99.0
                      | "p999" -> Sim.Stats.percentile samples 99.9
                      | m -> invalid_arg ("Runner: unknown SLO metric " ^ m)
                    in
                    (* Verdicts are remembered so a replayed epoch can
                       bump the same counters without re-deriving the
                       percentiles (identical under quiescence). *)
                    let violated = value > target in
                    st.ff_slo_violate.(i) <- violated;
                    if violated then st.slo_violations.(i) <- st.slo_violations.(i) + 1)
                  cfg.Config.slo
              end);
          (* Fault-mode page churn: real alloc/release traffic through
             the pv queue, so op drops and lost batches leave stale P2M
             entries for the reconciliation sweep to heal. *)
          (match st.queue with
          | None -> ()
          | Some q ->
              let period =
                match st.spec.Config.app.Workloads.App.page_release_period with
                | Some p -> p
                | None -> epoch_len
              in
              let iters = min 64 (max 1 (int_of_float (epoch_len /. period))) in
              let threads = st.spec.Config.threads in
              for i = 0 to iters - 1 do
                match Guest.Pfn_pool.alloc st.pool with
                | None -> ()
                | Some pfn ->
                    Guest.Pv_queue.record q (Guest.Pv_queue.Alloc pfn);
                    (match Xen.P2m.get st.domain.Xen.Domain.p2m pfn with
                    | Xen.P2m.Invalid ->
                        ignore
                          (Xen.Domain.handle_fault st.domain ~costs:system.Xen.System.costs
                             ~pfn ~cpu:st.domain.Xen.Domain.vcpu_pin.(i mod threads))
                    | Xen.P2m.Mapped _ -> ());
                    Guest.Pfn_pool.release st.pool pfn;
                    Guest.Pv_queue.record q (Guest.Pv_queue.Release pfn)
              done);
          (* Degradation housekeeping: drain deferred migrations and
             periodically reconcile the P2M against the guest free
             list.  Only under fault injection — a clean run must stay
             bit-identical to the pre-faults engine. *)
          if faults_on then begin
            let was_evacuating = Policies.Manager.evacuating st.manager >= 0 in
            Obs.Profile.span Obs.Profile.Epoch_tick (fun () ->
                Policies.Manager.epoch_tick st.manager ~epoch:!epochs
                  ~guest_free:(Guest.Pfn_pool.free_pfns st.pool)
                  ());
            (* During (and right after) a drain the placement cache is
               wholesale-stale: re-resolve it through the P2M. *)
            if was_evacuating || Policies.Manager.evacuating st.manager >= 0 then
              refresh_regions st
          end
          else if Policies.Manager.superpages_enabled st.manager then
            (* Clean runs historically skip the tick; superpage runs
               need it for the promotion scan (drain/breaker parts are
               no-ops without faults). *)
            Obs.Profile.span Obs.Profile.Epoch_tick (fun () ->
                Policies.Manager.epoch_tick st.manager ~epoch:!epochs ());
          (* Carrefour runs its user component once per second (every
             tenth epoch), like the real system. *)
          (match Policies.Manager.carrefour st.manager with
          | None -> ()
          | Some _ ->
              if !epochs mod 10 = 0 then
                match
                  Obs.Profile.span Obs.Profile.Carrefour_feed (fun () ->
                      Policies.Manager.carrefour_epoch_feed st.manager ~counters
                        ~feed:(fun sys -> feed_samples st sys))
                with
                | Some _ -> refresh_placement st
                | None -> ());
          (* Arming check and capture.  The structural clauses prove
             nothing moved this epoch's inputs (the P2M version covers
             every mapping mutation — placement, migration, splinter,
             promote; the finish count covers occupancy; I/O must have
             drained so dom0 stays idle and disk DMA silent; superpage
             VMs additionally need the manager quiescent, because their
             clean-path [epoch_tick] is skipped during replay and must
             be a provable no-op).  A structurally clean epoch is then
             captured into the snapshot of its parity; it ARMS the
             fast-forward when it bitwise reproduced the same-parity
             capture of two epochs before — the witness that the
             latency feedback settled into its (period ≤ 2) limit
             cycle.  Any unclean epoch stales both captures, so a
             fresh witness always spans consecutive clean epochs.  By
             induction, every subsequent guarded epoch then reproduces
             the opposite-parity capture's floats exactly. *)
          if ff_active then begin
            let clean =
              Xen.P2m.version st.domain.Xen.Domain.p2m = st.ff_p2m_version
              && (not st.ff_rotated)
              && st.burst_victim < 0
              && (st.ff_io = 0.0
                 || st.ff_io
                    = st.spec.Config.app.Workloads.App.disk_mb_s *. 1e6 *. cfg.Config.epoch)
              && st.migrations = st.ff_migrations
              && (let fin = ref 0 in
                  Array.iter (fun f -> if f >= 0.0 then incr fin) st.finish;
                  !fin = st.ff_finished)
              && ((not (Policies.Manager.superpages_enabled st.manager))
                 || Policies.Manager.quiescent st.manager)
            in
            if not clean then begin
              st.ff_armed <- false;
              st.ff_snap.(0).sn_epoch <- -1;
              st.ff_snap.(1).sn_epoch <- -1
            end
            else begin
              let snap = st.ff_snap.(!epochs land 1) in
              let other = st.ff_snap.(1 - (!epochs land 1)) in
              st.ff_armed <-
                snap.sn_epoch >= 0
                && (!epochs - snap.sn_epoch) land 1 = 0
                && other.sn_epoch >= 0
                && (!epochs - other.sn_epoch) land 1 = 1
                && arrays_bits_equal snap.sn_lat st.avg_lat
                && arrays_bits_equal snap.sn_dst st.thread_dst
                && arrays_bits_equal snap.sn_total st.thread_total
                && arrays_bits_equal snap.sn_sync st.thread_sync
                && arrays_bits_equal snap.sn_doit st.thread_doit
                && arrays_bits_equal snap.sn_cap st.thread_cap
                && arrays_bits_equal snap.sn_final st.thread_final
                && Int64.bits_of_float snap.sn_io = Int64.bits_of_float st.ff_io;
              snap.sn_epoch <- !epochs;
              Array.blit st.thread_sync 0 snap.sn_sync 0 threads;
              Array.blit st.thread_doit 0 snap.sn_doit 0 threads;
              Array.blit st.thread_cap 0 snap.sn_cap 0 threads;
              Array.blit st.thread_final 0 snap.sn_final 0 threads;
              Array.blit st.thread_total 0 snap.sn_total 0 threads;
              Array.blit st.avg_lat 0 snap.sn_lat 0 threads;
              Array.blit st.thread_dst 0 snap.sn_dst 0 (threads * nodes);
              snap.sn_io <- st.ff_io;
              snap.sn_slo_active <- st.ff_slo_active;
              Array.blit st.ff_slo_violate 0 snap.sn_slo_violate 0
                (Array.length st.ff_slo_violate)
            end
          end
        end)
      states;
    if
      ff_active
      && List.for_all (fun st -> (not (vm_running st)) || st.ff_armed) states
    then ff_until := skip_horizon !epochs
    end;
    (match cfg.Config.observer with
    | None -> ()
    | Some observer ->
        let progress st =
          let total = Array.fold_left ( +. ) 0.0 st.remaining in
          let work =
            float_of_int st.spec.Config.threads
            *. Workloads.App.instructions_per_thread st.spec.Config.app
                 ~threads:st.spec.Config.threads
                 ~freq_hz:cfg.Config.machine.Numa.Machine_desc.freq_hz
          in
          Float.max 0.0 (Float.min 1.0 (1.0 -. (total /. work)))
        in
        observer
          {
            Config.epoch_index = !epochs;
            time = !now +. epoch_len;
            imbalance = Numa.Counters.imbalance counters;
            max_controller_util =
              Array.fold_left Float.max 0.0 (Numa.Counters.last_controller_utilisation counters);
            max_link_util =
              Array.fold_left Float.max 0.0 (Numa.Counters.last_link_utilisation counters);
            progress =
              List.map (fun st -> (st.spec.Config.app.Workloads.App.name, progress st)) states;
            local_fraction =
              List.map
                (fun st ->
                  ( st.spec.Config.app.Workloads.App.name,
                    if st.total_accesses > 0.0 then st.local_accesses /. st.total_accesses
                    else 0.0 ))
                states;
          });
    incr epochs;
    now := !now +. epoch_len
  done;
  let result =
    {
      Result.vms = List.map (vm_result cfg system) states;
      imbalance = Numa.Counters.imbalance counters;
      interconnect_load = Numa.Counters.interconnect_load counters;
      epochs = !epochs;
      replayed_epochs = !ff_replayed;
      faults_injected = Faults.Injector.total_injected injector;
    }
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "engine.runs";
    Obs.Metrics.incr ~by:result.Result.epochs "engine.epochs";
    Obs.Metrics.incr ~by:result.Result.faults_injected "engine.faults_injected";
    List.iter
      (fun (vm : Result.vm_result) ->
        Obs.Metrics.observe "engine.vm.completion_s" vm.Result.completion;
        Obs.Metrics.observe "engine.vm.virt_overhead_s" vm.Result.virt_overhead;
        Obs.Metrics.incr ~by:vm.Result.migrations "engine.migrations";
        Obs.Metrics.incr ~by:vm.Result.faults "engine.faults";
        List.iter
          (fun (s : Result.slo_row) ->
            if s.Result.violated then Obs.Metrics.incr "engine.slo.violated_objectives";
            Obs.Metrics.incr ~by:s.Result.violation_epochs "engine.slo.violation_epochs")
          vm.Result.slo)
      result.Result.vms;
    (* Bucket counts are additive, so the registry histogram is the
       same whatever the sweep's worker count or run order. *)
    List.iter
      (fun st ->
        Obs.Metrics.merge_histogram "engine.vm.latency_cycles" st.lat_hist;
        if st.spec.Config.pt_walk then
          Obs.Metrics.observe "engine.pt.walk_cycles_per_instr" st.tlb_cycles_per_instr;
        match Policies.Manager.pt st.manager with
        | Some pt when Xen.Pt.replicated pt ->
            Obs.Metrics.incr ~by:(Xen.Pt.replica_updates pt) "engine.pt.replica_updates";
            Obs.Metrics.incr ~by:(Xen.Pt.replica_invalidations pt)
              "engine.pt.replica_invalidations";
            Obs.Metrics.observe "engine.pt.replica_time_s"
              st.domain.Xen.Domain.account.Xen.Domain.pt_replica_time
        | Some _ | None -> ())
      states
  end;
  result
