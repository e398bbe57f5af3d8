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

(* The per-vCPU slots one epoch writes: what the kernels leave behind
   for the end of the epoch, and, through [lat], for the next epoch's
   compute kernel.  Flat and indexed by vCPU ([dst] row [t * nodes ..
   t * nodes + nodes - 1] is vCPU [t]'s destination spread), so the
   kernels walk contiguous memory.

   The kernels write {e only} vCPU-indexed slots; every accumulation
   that crosses vCPUs ([src_shared], the counters, [sums] ...)
   reads them afterwards in one sequential vCPU-order reduction.  Float
   addition is not associative, so the reduction order — vCPU 0, 1,
   2, ... — is fixed.  [vm_state] holds the live slots; the
   fast-forward captures copies and runs the same end-of-epoch stages
   over a copy (DESIGN.md §13, §17). *)
type slots = {
  sync : float array;   (* blocked time contribution this epoch *)
  doit : float array;   (* tentative instructions; > 0 marks vCPUs that did work *)
  cap : float array;    (* instruction capacity this epoch *)
  final : float array;  (* instructions retired this epoch: the throughput kernel
                           scales [dst] in place, which loses [doit *. realized] *)
  total : float array;  (* realized accesses, the latency weights *)
  lat : float array;    (* average memory latency per vCPU *)
  dst : float array;    (* realized traffic, threads * nodes, row-major by vCPU *)
}

let make_slots ~threads ~nodes ~lat =
  {
    sync = Array.make threads 0.0;
    doit = Array.make threads 0.0;
    cap = Array.make threads 0.0;
    final = Array.make threads 0.0;
    total = Array.make threads 0.0;
    lat = Array.make threads lat;
    dst = Array.make (threads * nodes) 0.0;
  }

let copy_slots ~from ~into =
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit from.sync into.sync;
  blit from.doit into.doit;
  blit from.cap into.cap;
  blit from.final into.final;
  blit from.total into.total;
  blit from.lat into.lat;
  blit from.dst into.dst

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

let slots_bits_equal a b =
  arrays_bits_equal a.lat b.lat && arrays_bits_equal a.dst b.dst
  && arrays_bits_equal a.total b.total && arrays_bits_equal a.sync b.sync
  && arrays_bits_equal a.doit b.doit && arrays_bits_equal a.cap b.cap
  && arrays_bits_equal a.final b.final

(* One captured epoch for the fast-forward.  The latency feedback's
   fixed point is in general a period-2 limit cycle in the last ulp
   (the one-epoch-lag iteration overshoots and alternates between two
   neighbouring floats forever), so the runner keeps one capture per
   epoch parity and the replay alternates them; a true period-1 fixed
   point just makes the two captures equal. *)
type snapshot = {
  mutable epoch : int;  (* capture epoch; -1 = stale *)
  slots : slots;
  mutable io : float;   (* disk DMA bytes of the captured epoch *)
}

(* A VM's scalar float accumulators, in an all-float record: OCaml
   stores its fields unboxed, so the per-vCPU updates of the epoch
   reductions allocate nothing. *)
type sums = {
  mutable shared_accesses_epoch : float;
  mutable burst_accesses_epoch : float;
  mutable sync_overhead : float;
  mutable weighted_lat : float;
  mutable total_accesses : float;
  mutable local_accesses : float;
}

type vm_state = {
  spec : Config.vm_spec;
  domain : Xen.Domain.t;
  manager : Policies.Manager.t;
  pool : Guest.Pfn_pool.t;
  queue : Guest.Pv_queue.t option;
      (* Concrete pv queue driving real alloc/release churn; only built
         under fault injection (clean runs model the churn analytically
         in release_churn_overhead). *)
  shared : region;
  privates : region array;
  (* Flat pfn -> region location index.  Region pfns are small dense
     ints from the pool's fresh range, so two int arrays beat a
     Hashtbl on the per-sample lookup path: no hashing, no boxing, no
     allocation.  Entry i is pfn [pfn_base + i], and the arrays end at
     the highest region pfn: they are sized by the regions, not by
     mem_frames.  owner -1 = untracked, 0 = shared region, t+1 =
     private region of thread t; slot is the page's index within that
     region. *)
  pfn_base : int;
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
  shared_zipf : Sim.Rng.zipf;  (* the shared region's popularity law *)
  remaining : float array;
  finish : float array;  (* -1 while running *)
  stalled : bool array;  (* this epoch's injected vCPU stalls *)
  thread_node : int array;
  slots : slots;  (* this epoch's per-vCPU slots (live) *)
  thread_accesses : float array;  (* this epoch, per thread *)
  thread_shared : float array;  (* accesses into the shared region *)
  thread_burst : float array;   (* burst accesses, > 0 only for the source *)
  src_shared : float array;  (* accesses into the shared region per source node *)
  sums : sums;
  mutable burst_victim : int;
  mutable burst_source : int;
  mutable io_bytes_left : float;
  mutable migrations : int;
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

let finished_threads st =
  Array.fold_left (fun n f -> if f >= 0.0 then n + 1 else n) 0 st.finish

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
   drivers; Xen+ uses PCI passthrough with the IOMMU — unless the policy
   invalidates free pages, which is incompatible with the IOMMU
   (invalid P2M entries abort DMA with an asynchronous error). *)
let io_path mode policy =
  match mode with
  | Config.Linux -> `Native
  | Config.Xen -> `Pv
  | Config.Xen_plus -> if Policies.Spec.invalidates_free_pages policy then `Pv else `Passthrough

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
let build_region system gpt ~alloc domain ~vfn0 ~pages ~weights ~cpu ~nodes =
  let pfns = Array.make pages 0 in
  let page_node = Array.make pages 0 in
  let node_weight = Array.make nodes 0.0 in
  for i = 0 to pages - 1 do
    let pfn = Guest.Gpt.touch gpt (vfn0 + i) ~alloc in
    if pfn < 0 then invalid_arg "Runner: guest physical memory exhausted";
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

(* Fraction of the mapped guest frames behind 2 MiB P2M entries. *)
let superpage_fraction p2m =
  let mapped = Xen.P2m.mapped_count p2m in
  if mapped = 0 then 0.0 else float_of_int (Xen.P2m.superpage_frames p2m) /. float_of_int mapped

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
    0.3
    *. Guest.Tlb.cycles_per_access_mixed Guest.Tlb.opteron
         ~huge_fraction:(superpage_fraction domain.Xen.Domain.p2m)
         ~virtualized:(cfg.Config.mode <> Config.Linux)
         ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
         ~hot_access_share:(tlb_hot_access_share app)
  end

(* Radix pricing (--pt-walk): each walk level is charged at the static
   latency of the node backing the page tables, normalised to the
   local latency the flat model assumes and averaged over the threads.
   Every level lives on one node, so one ratio prices them all.  Ratios
   use unsaturated latencies — the walk term prices the tables'
   placement, not the epoch's congestion — so on a topology where every
   walk is local (one node, or replicated tables) the sum collapses
   back to the flat constant by construction. *)
let tlb_cycles_per_instr_radix (cfg : Config.t) (spec : Config.vm_spec)
    (domain : Xen.Domain.t) ~(pt : Xen.Pt.t) ~(thread_node : int array) ~topo ~latency =
  let app = spec.Config.app in
  let local = Numa.Latency.mem_cycles latency ~hops:0 ~saturation:0.0 in
  let threads = spec.Config.threads in
  let ratio =
    let acc = ref 0.0 in
    for t = 0 to threads - 1 do
      let node = thread_node.(t) in
      let hops = Numa.Topology.distance topo node (Xen.Pt.walk_node pt ~node) in
      acc := !acc +. (Numa.Latency.mem_cycles latency ~hops ~saturation:0.0 /. local)
    done;
    !acc /. float_of_int threads
  in
  let huge_fraction =
    if spec.Config.huge_pages then 1.0
    else
      (* Without P2M superpages the counter is 0, so this is the 4 KiB
         path; with them it tracks the live fraction like the flat
         dynamic model. *)
      superpage_fraction domain.Xen.Domain.p2m
  in
  0.3
  *. Guest.Tlb.cycles_per_access_mixed_radix Guest.Tlb.opteron ~huge_fraction
       ~virtualized:(cfg.Config.mode <> Config.Linux)
       ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
       ~hot_access_share:(tlb_hot_access_share app) ~ratio

(* Popularity of page [i] under the region's current rotation. *)
let eff_weight region i =
  (* [i] and [shift] are both in [\[0, pages)]. *)
  let j = i - region.shift in
  region.weights.(if j < 0 then j + Array.length region.weights else j)

(* Re-aggregate per-node popularity from the pages' nodes under the
   current rotation, in page order (replicated pages keep serving their
   read share locally). *)
let reaggregate region ~read_fraction =
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

(* Move the hot front. *)
let rotate_region region ~shift ~read_fraction =
  if shift <> region.shift then begin
    region.shift <- shift;
    reaggregate region ~read_fraction
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
    | Config.Xen | Config.Xen_plus -> Policies.Spec.boot ~superpages policy
  in
  let manager =
    Policies.Manager.attach ~carrefour_config:(carrefour_config cfg machine) ~superpages
      ~pt_walk ~replicate_pt system domain ~boot ~rng
  in
  (match Policies.Manager.switch manager policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner: " ^ msg));
  let queue =
    match cfg.Config.mode with
    | Config.Linux -> None
    | Config.Xen | Config.Xen_plus ->
        if
          Faults.Injector.enabled injector
          && Policies.Spec.invalidates_free_pages policy
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
  let gpt = Guest.Gpt.create ~frames:vframes in
  let alloc () = Guest.Pfn_pool.alloc pool in
  let master_cpu = domain.Xen.Domain.vcpu_pin.(0) in
  let shared =
    build_region system gpt ~alloc domain ~vfn0:0 ~pages:shared_pages
      ~weights:(zipf_weights ~pages:shared_pages ~s:app.Workloads.App.zipf_s)
      ~cpu:master_cpu ~nodes
  in
  let privates =
    Array.init threads (fun t ->
        build_region system gpt ~alloc domain
          ~vfn0:(shared_pages + (t * private_pages))
          ~pages:private_pages
          ~weights:(uniform_weights ~pages:private_pages)
          ~cpu:domain.Xen.Domain.vcpu_pin.(t) ~nodes)
  in
  (* The pool hands region pages out from first_fresh up. *)
  let pfn_base = first_fresh in
  let top region = Array.fold_left Int.max pfn_base region.pfns in
  let span = 1 + Array.fold_left (fun acc r -> Int.max acc (top r)) (top shared) privates - pfn_base in
  let pfn_owner = Array.make span (-1) in
  let pfn_slot = Array.make span 0 in
  let index owner region =
    Array.iteri
      (fun i pfn ->
        pfn_owner.(pfn - pfn_base) <- owner;
        pfn_slot.(pfn - pfn_base) <- i)
      region.pfns
  in
  index 0 shared;
  Array.iteri (fun t region -> index (t + 1) region) privates;
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
    shared;
    privates;
    pfn_base;
    pfn_owner;
    pfn_slot;
    sample_seen = Bytes.make shared_pages '\000';
    sample_touched = Array.make 128 0;
    sample_pfns = Array.make (128 + (8 * threads)) 0;
    sample_count = 0;
    sample_scratch = Array.make nodes 0.0;
    shared_zipf = Sim.Rng.zipf_sampler ~n:shared_pages ~s:app.Workloads.App.zipf_s;
    remaining = Array.make threads work;
    finish = Array.make threads (-1.0);
    stalled = Array.make threads false;
    thread_node =
      Array.init threads (fun t -> Numa.Topology.node_of_cpu topo domain.Xen.Domain.vcpu_pin.(t));
    slots = make_slots ~threads ~nodes ~lat:190.0;
    thread_accesses = Array.make threads 0.0;
    thread_shared = Array.make threads 0.0;
    thread_burst = Array.make threads 0.0;
    src_shared = Array.make nodes 0.0;
    sums =
      {
        shared_accesses_epoch = 0.0;
        burst_accesses_epoch = 0.0;
        sync_overhead = 0.0;
        weighted_lat = 0.0;
        total_accesses = 0.0;
        local_accesses = 0.0;
      };
    burst_victim = -1;
    burst_source = -1;
    io_bytes_left = Workloads.App.disk_bytes_total app;
    migrations = 0;
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
    ff_snap =
      Array.init 2 (fun _ ->
          { epoch = -1; slots = make_slots ~threads ~nodes ~lat:0.0; io = 0.0 });
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
  let events = blocking_events_per_s app *. Config.epoch_len in
  (* MCS waiters spin on a queue flag and never leave the CPU; a futex
     sleep pays two context switches plus the wake-up. *)
  let per_event =
    if st.spec.Config.use_mcs then 0.0
    else (2.0 *. costs.Xen.Costs.context_switch) +. wakeup_of_mode costs cfg.Config.mode
  in
  let total = events *. per_event in
  let threads = float_of_int st.spec.Config.threads in
  Float.min (0.85 *. Config.epoch_len) (total /. threads)

(* Distribute one thread's epoch accesses over destination nodes.
   Writes only vCPU [t]'s row and [t]-indexed slots; the shared-region
   and burst totals are folded in later by [reduce_epoch_traffic]. *)
let distribute_thread st t ~accesses =
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
   epoch parameters, the stall mask) is fixed for the epoch. *)
let epoch_compute_kernel st ~occupancy ~oh ~carrefour_tax ~mr ~freq ~epoch_len ~threads =
  let s = st.slots in
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
          distribute_thread st t ~accesses
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
  st.ff_migrations <- st.migrations;
  st.ff_finished <- finished_threads st;
  let app = st.spec.Config.app in
  (* algorithmic phases: as the run progresses, the hot front of the
     shared region moves; static placements do not notice, dynamic
     policies must chase *)
  if app.Workloads.App.phases > 1 then begin
    let total = st.work_per_thread *. float_of_int st.spec.Config.threads in
    let left = work_left st in
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
  let shared_total = st.sums.shared_accesses_epoch in
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
    for _ = 1 to min 96 pages do
      emit (Sim.Rng.zipf st.rng st.shared_zipf)
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
            +. (st.sums.burst_accesses_epoch /. float_of_int pages *. 8.0);
        push region.pfns.(i)
      done
    end
  done;
  st.private_sample_cursor <- st.private_sample_cursor + 8

(* The node backing guest page [pfn], -1 when it is unmapped. *)
let pfn_node machine st pfn =
  let mfn = Xen.P2m.mfn_of st.domain.Xen.Domain.p2m pfn in
  if mfn < 0 then -1 else Memory.Machine.node_of_mfn machine mfn

(* The region owner of [pfn] (see [pfn_owner]), -1 when untracked. *)
let owner_of st pfn =
  let i = pfn - st.pfn_base in
  if i >= 0 && i < Array.length st.pfn_owner then st.pfn_owner.(i) else -1

(* Page [pfn]'s index within its region; [pfn] must be tracked. *)
let slot_of st pfn = st.pfn_slot.(pfn - st.pfn_base)

let owned_region st owner = if owner = 0 then st.shared else st.privates.(owner - 1)

(* Move page [i]'s popularity from its cached node to [node] (only the
   write share of a replicated page); returns whether the node
   changed. *)
let move_page region i node ~read_fraction =
  let old_node = region.page_node.(i) in
  old_node <> node
  && begin
       let w = eff_weight region i in
       let moved =
         if Bytes.get region.replicated i <> '\000' then w *. (1.0 -. read_fraction) else w
       in
       region.node_weight.(old_node) <- region.node_weight.(old_node) -. moved;
       region.node_weight.(node) <- region.node_weight.(node) +. moved;
       region.page_node.(i) <- node;
       true
     end

(* Refresh cached placement after Carrefour migrations and
   replications, over the pages fed this period; untracked and unmapped
   pages are skipped. *)
let refresh_placement machine st =
  let read_fraction = st.spec.Config.app.Workloads.App.read_fraction in
  let carrefour = Policies.Manager.carrefour st.manager in
  for s = 0 to st.sample_count - 1 do
    let pfn = st.sample_pfns.(s) in
    let owner = owner_of st pfn in
    let node = if owner >= 0 then pfn_node machine st pfn else -1 in
    if node >= 0 then begin
      let region = owned_region st owner and i = slot_of st pfn in
      let w = eff_weight region i in
      (* Replication status change: the read share of the page's
         popularity moves between the home node and the
         everywhere-local pool. *)
      let replicated_now =
        match carrefour with
        | Some sys -> Policies.Carrefour.System_component.is_replicated sys pfn
        | None -> false
      in
      if replicated_now <> (Bytes.get region.replicated i <> '\000') then begin
        (* [x -. (-. m)] is bitwise [x +. m]: IEEE subtraction adds
           the negation. *)
        let moved = if replicated_now then w *. read_fraction else -.(w *. read_fraction) in
        let home = region.page_node.(i) in
        region.node_weight.(home) <- region.node_weight.(home) -. moved;
        region.replicated_local <- region.replicated_local +. moved;
        Bytes.set region.replicated i (if replicated_now then '\001' else '\000')
      end;
      if move_page region i node ~read_fraction then st.migrations <- st.migrations + 1
    end
  done

(* Re-resolve every region page's node through the P2M: while an
   evacuation drain is in flight placement moves wholesale, far beyond
   what the per-sample Carrefour refresh can track, and traffic routed
   at the stale (collapsing) node would never recover. *)
let refresh_region machine st region =
  Array.iteri
    (fun i pfn ->
      let node = pfn_node machine st pfn in
      if node >= 0 then region.page_node.(i) <- node)
    region.pfns;
  reaggregate region ~read_fraction:st.spec.Config.app.Workloads.App.read_fraction

let refresh_regions machine st =
  refresh_region machine st st.shared;
  Array.iter (refresh_region machine st) st.privates

(* Targeted variant for sparse placement changes (the UE remap): move
   one page's popularity between nodes. *)
let update_page_node machine st pfn =
  let owner = owner_of st pfn in
  let node = if owner >= 0 then pfn_node machine st pfn else -1 in
  if node >= 0 then
    ignore
      (move_page (owned_region st owner) (slot_of st pfn) node
         ~read_fraction:st.spec.Config.app.Workloads.App.read_fraction)

(* ------------------------------------------------------------------ *)
(* End-of-epoch stages, shared by full and replayed epochs             *)
(* ------------------------------------------------------------------ *)

(* An SLO metric's value from a mean latency and a quantile function
   over the latency samples it summarises. *)
let slo_value metric ~mean ~quantile =
  match metric with
  | "mean" -> mean
  | "p50" -> quantile 50.0
  | "p95" -> quantile 95.0
  | "p99" -> quantile 99.0
  | "p999" -> quantile 99.9
  | m -> invalid_arg ("Runner: unknown SLO metric " ^ m)

(* Commit the realized thread traffic to the hardware counters — a
   cross-vCPU float accumulation, so vCPU order, sequential. *)
let commit_traffic counters st (s : slots) =
  let nodes = Array.length st.src_shared in
  for t = 0 to st.spec.Config.threads - 1 do
    if s.doit.(t) > 0.0 then
      Numa.Counters.record_row counters ~src:st.thread_node.(t) s.dst ~base:(t * nodes)
        ~bytes_per_access:access_bytes
  done

(* The latency reduction: weighted, total and local accesses, the
   latency histogram and the epoch's SLO verdicts, in vCPU order — the
   one place latency samples are recorded, so the histogram (and
   everything derived from it) follows vCPU order.  Runs of
   bitwise-equal samples enter the histogram through one [add_n], which
   leaves the very same sums as one [add] per sample.  The SLO
   accounting only reads the epoch's latencies — no RNG, no traffic, no
   trace — so a run with objectives stays bit-identical to one
   without. *)
let reduce_latency (cfg : Config.t) st (s : slots) =
  let nodes = Array.length st.src_shared in
  let running = ref 0 in
  let ep_wlat = ref 0.0 in
  let ep_total = ref 0.0 in
  let run_v = ref 0.0 in
  let run_n = ref 0 in
  for t = 0 to st.spec.Config.threads - 1 do
    let total = s.total.(t) in
    if total > 0.0 then begin
      let lat = s.lat.(t) in
      let w = total *. lat in
      let sums = st.sums in
      sums.weighted_lat <- sums.weighted_lat +. w;
      sums.total_accesses <- sums.total_accesses +. total;
      sums.local_accesses <- sums.local_accesses +. s.dst.((t * nodes) + st.thread_node.(t));
      if !run_n > 0 && Int64.bits_of_float lat = Int64.bits_of_float !run_v then incr run_n
      else begin
        if !run_n > 0 then Sim.Stats.Histogram.add_n st.lat_hist !run_v !run_n;
        run_v := lat;
        run_n := 1
      end;
      st.slo_scratch.(!running) <- lat;
      incr running;
      ep_wlat := !ep_wlat +. w;
      ep_total := !ep_total +. total
    end
  done;
  if !run_n > 0 then Sim.Stats.Histogram.add_n st.lat_hist !run_v !run_n;
  if cfg.Config.slo <> [] && !running > 0 then begin
    st.active_epochs <- st.active_epochs + 1;
    let samples = Array.sub st.slo_scratch 0 !running in
    (* Read outside the closure, so the accumulators stay unboxed. *)
    let mean = !ep_wlat /. !ep_total in
    List.iteri
      (fun i (metric, target) ->
        let value = slo_value metric ~mean ~quantile:(Sim.Stats.percentile samples) in
        if value > target then st.slo_violations.(i) <- st.slo_violations.(i) + 1)
      cfg.Config.slo
  end

(* ------------------------------------------------------------------ *)
(* Completion accounting                                               *)
(* ------------------------------------------------------------------ *)

let release_churn_overhead cfg st ~active_seconds =
  match (cfg.Config.mode, st.spec.Config.app.Workloads.App.page_release_period) with
  | (Config.Xen | Config.Xen_plus), Some period
    when Policies.Spec.invalidates_free_pages st.spec.Config.policy ->
      let costs = Xen.Costs.default in
      let per_release =
        (costs.Xen.Costs.hypercall_entry /. 128.0)
        +. costs.Xen.Costs.page_op_send +. costs.Xen.Costs.page_invalidate
        +. costs.Xen.Costs.hypervisor_fault +. costs.Xen.Costs.page_map
      in
      active_seconds /. period *. per_release /. float_of_int st.spec.Config.threads
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
      requests *. Xen.Costs.disk_request_overhead costs path
    end
    else 0.0
  in
  let release_overhead = release_churn_overhead cfg st ~active_seconds:compute_time in
  let p2m = st.domain.Xen.Domain.p2m in
  let pt_count f = match Policies.Manager.pt st.manager with Some pt -> f pt | None -> 0 in
  let avg_latency_cycles =
    if st.sums.total_accesses > 0.0 then st.sums.weighted_lat /. st.sums.total_accesses else 0.0
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
          slo_value metric ~mean:avg_latency_cycles
            ~quantile:(Sim.Stats.Histogram.percentile st.lat_hist)
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
    sync_overhead = st.sums.sync_overhead;
    virt_overhead;
    release_overhead;
    faults = account.Xen.Domain.fault_count;
    migrations = st.migrations;
    avg_latency_cycles;
    local_fraction =
      (if st.sums.total_accesses > 0.0 then st.sums.local_accesses /. st.sums.total_accesses
       else 0.0);
    superpages = Xen.P2m.superpage_count p2m;
    superpage_fraction = superpage_fraction p2m;
    splinters = Xen.P2m.splinter_count p2m;
    promotes = Xen.P2m.promote_count p2m;
    superpage_migrates = (Policies.Manager.stats st.manager).Policies.Manager.superpage_migrates;
    walk_cycles_per_instr = st.tlb_cycles_per_instr;
    pt_replica_updates = pt_count Xen.Pt.replica_updates;
    pt_replica_invalidations = pt_count Xen.Pt.replica_invalidations;
    pt_replica_time = account.Xen.Domain.pt_replica_time;
    latency;
    slo;
    degradation = vm_degradation st;
  }


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
  fail_nodes : int list;  (* the plan's node-failure targets, ascending *)
  nodes : int;
  bus_node : int;
  controller_capacity : float;
  node_demand : float array;
  node_scale : float array;
  (* RAS state: per-node effective capacity and bandwidth factor (both
     move only under a [node_fail] plan) and the failing state seen
     last epoch, for transition detection. *)
  node_capacity : float array;
  bw_factor : float array;
  node_was_failing : bool array;
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
  let costs = costs_of_mode cfg.Config.mode in
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
  let states = List.map (setup_vm cfg system injector root_rng) cfg.Config.vms in
  let nodes = Numa.Topology.node_count topo in
  (* Node-fail targets are drawn from the union of the guests' home
     nodes, so an injected failure always lands where memory lives.
     Safe after setup: at epoch -1 nothing is armed, so boot drew
     nothing from the injector's stream. *)
  (let seen = Array.make nodes false in
   List.iter
     (fun st -> Array.iter (fun n -> seen.(n) <- true) st.domain.Xen.Domain.home_nodes)
     states;
   let candidates =
     Array.of_list
       (List.filter (fun n -> seen.(n)) (List.init (Array.length seen) Fun.id))
   in
   Faults.Injector.assign_node_targets injector ~candidates ~nodes ());
  (match obs_stream with
  | None -> ()
  | Some _ ->
      List.iter
        (fun st ->
          match st.queue with
          | Some q -> Guest.Pv_queue.set_obs q ~domain:st.domain.Xen.Domain.id obs_stream
          | None -> ())
        states);
  (* A controller's sustained random-access throughput is well below
     its streaming peak (bank cycle time, row misses): 62% of the
     13 GiB/s plate number, as derived by the request-level simulator
     (Microsim.Memsim.random_access_efficiency). *)
  let controller_capacity =
    0.62 *. Numa.Topology.controller_gib_per_s topo *. (1024.0 ** 3.0) *. Config.epoch_len
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
    fail_nodes = List.sort_uniq Int.compare (Faults.Injector.node_fail_targets injector);
    nodes;
    bus_node =
      (match machine_desc.Numa.Machine_desc.pci_bus_nodes with
      | _ :: n :: _ -> n
      | [ n ] -> n
      | [] -> 0);
    controller_capacity;
    node_demand = Array.make nodes 0.0;
    node_scale = Array.make nodes 1.0;
    node_capacity = Array.make nodes controller_capacity;
    bw_factor = Array.make nodes 1.0;
    node_was_failing = Array.make nodes false;
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
   its free list, which lets the manager run its reconcile sweeps. *)
let tick rs st =
  let was_evacuating = Policies.Manager.evacuating st.manager >= 0 in
  Obs.Profile.span Obs.Profile.Epoch_tick (fun () ->
      Policies.Manager.epoch_tick st.manager ~epoch:rs.epochs
        ?guest_free:
          (if Faults.Injector.enabled rs.injector then Some (Guest.Pfn_pool.free_pfns st.pool)
           else None)
        ());
  (* During (and right after) a drain the placement cache is
     wholesale-stale: re-resolve it through the P2M. *)
  if was_evacuating || Policies.Manager.evacuating st.manager >= 0 then
    refresh_regions rs.system.Xen.System.machine st

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

(* Node RAS: mirror the injector's failing state into the topology
   mask.  At a failing transition the node's machine frames are
   retired immediately (free ones now, mapped ones when freed) and
   every domain starts draining its resident frames; a recovered node
   rejoins the mask and pool.  Only the plan's node-failure targets can
   move, in ascending order.  Returns whether a node's failing state or
   bandwidth factor changed. *)
let node_ras rs =
  let machine = rs.system.Xen.System.machine in
  List.fold_left
    (fun changed n ->
      let bw = Faults.Injector.node_bandwidth_factor rs.injector ~node:n in
      let bw_moved = not (Float.equal bw rs.bw_factor.(n)) in
      rs.bw_factor.(n) <- bw;
      rs.node_capacity.(n) <- rs.controller_capacity *. Float.max 0.01 bw;
      let failing = Faults.Injector.node_failing rs.injector ~node:n in
      let flipped = failing <> rs.node_was_failing.(n) in
      if flipped then begin
        rs.node_was_failing.(n) <- failing;
        Numa.Topology.set_node_online rs.topo n (not failing);
        if failing then ignore (Memory.Machine.offline_node machine n)
        else ignore (Memory.Machine.online_node machine n);
        List.iter
          (fun st ->
            if failing then Policies.Manager.request_evacuation st.manager ~node:n
            else Policies.Manager.cancel_evacuation st.manager ~node:n)
          rs.states
      end;
      changed || bw_moved || flipped)
    false rs.fail_nodes

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
                update_page_node rs.system.Xen.System.machine st pfn)
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
  let nodes_changed = node_ras rs in
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
let retire st (s : slots) =
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
  let each f = List.iter (fun st -> if vm_running st then f st) rs.states in
  Obs.Profile.span Obs.Profile.Ff_replay (fun () ->
      each (fun st -> retire st (snap st));
      each (fun st ->
          disk_traffic rs.cfg st rs.counters ~bus_node:rs.bus_node ~node_demand:rs.node_demand);
      each (fun st -> commit_traffic rs.counters st (snap st));
      Numa.Counters.end_epoch rs.counters ~duration:Config.epoch_len;
      each (fun st ->
          let s = snap st in
          reduce_latency rs.cfg st s;
          (* Keep the one live cross-epoch input phase-correct: the
             next full epoch's compute kernel reads [lat], which must
             hold this (replayed) epoch's values. *)
          Array.blit s.lat 0 st.slots.lat 0 (Array.length s.lat)));
  each (tick rs)

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
                && io_path cfg.Config.mode st.spec.Config.policy = `Pv
              then acc +. st.spec.Config.app.Workloads.App.disk_mb_s
              else acc)
            0.0 rs.states
        in
        min 6 (int_of_float (Float.round (pv_mb_s /. dom0_core_mb_s)))
  in
  compute_occupancy ~occ:rs.occupancy rs.states ~dom0:rs.dom0 ~dom0_active;
  List.iter
    (fun st ->
      if vm_running st then begin
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
              tlb_cycles_per_instr_radix cfg st.spec st.domain ~pt ~thread_node:st.thread_node
                ~topo:rs.topo ~latency:machine.Numa.Machine_desc.latency
        | Some _ | None ->
            if Policies.Manager.superpages_enabled st.manager then
              st.tlb_cycles_per_instr <- tlb_cycles_per_instr_dynamic cfg st.spec st.domain);
        let oh = epoch_sync_overhead cfg st in
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
        disk_traffic cfg st rs.counters ~bus_node:rs.bus_node ~node_demand:rs.node_demand
      end)
    rs.states

(* Bandwidth clamp: a memory controller serves at most its
   (random-access effective) capacity per epoch.  When the demand on a
   node overflows, every thread touching that node stalls in proportion
   — the throughput collapse that makes master-slave patterns so
   expensive, beyond the latency inflation alone. *)
let clamp_bandwidth rs =
  let nodes = rs.nodes in
  List.iter
    (fun st ->
      if vm_running st then
        for t = 0 to st.spec.Config.threads - 1 do
          let base = t * nodes in
          for n = 0 to nodes - 1 do
            rs.node_demand.(n) <- rs.node_demand.(n) +. (st.slots.dst.(base + n) *. access_bytes)
          done
        done)
    rs.states;
  for n = 0 to nodes - 1 do
    rs.node_scale.(n) <-
      (if rs.node_demand.(n) > rs.node_capacity.(n) then rs.node_capacity.(n) /. rs.node_demand.(n)
       else 1.0)
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
  Obs.Profile.span Obs.Profile.Reduce (fun () -> reduce_latency rs.cfg st s)

(* Fault-mode page churn: real alloc/release traffic through the pv
   queue, so op drops and lost batches leave stale P2M entries for the
   reconciliation sweep to heal.  Full epochs only: a VM with a queue
   never arms. *)
let page_churn rs st =
  match st.queue with
  | None -> ()
  | Some q ->
      let period =
        match st.spec.Config.app.Workloads.App.page_release_period with
        | Some p -> p
        | None -> Config.epoch_len
      in
      let iters = min 64 (max 1 (int_of_float (Config.epoch_len /. period))) in
      let threads = st.spec.Config.threads in
      for i = 0 to iters - 1 do
        let pfn = Guest.Pfn_pool.alloc st.pool in
        if pfn >= 0 then begin
          Guest.Pv_queue.record q (Guest.Pv_queue.Alloc pfn);
          if Xen.P2m.mfn_of st.domain.Xen.Domain.p2m pfn < 0 then
            ignore
              (Xen.Domain.handle_fault st.domain ~costs:rs.system.Xen.System.costs ~pfn
                 ~cpu:st.domain.Xen.Domain.vcpu_pin.(i mod threads));
          Guest.Pfn_pool.release st.pool pfn;
          Guest.Pv_queue.record q (Guest.Pv_queue.Release pfn)
        end
      done

(* Carrefour runs its user component once per period (once per
   second), like the real system; the Manager owns the period. *)
let carrefour_period rs st =
  if Policies.Manager.carrefour_due st.manager ~epoch:rs.epochs then
    match
      Obs.Profile.span Obs.Profile.Carrefour_feed (fun () ->
          Policies.Manager.carrefour_epoch_feed st.manager ~counters:rs.counters
            ~feed:(fun sys -> feed_samples st sys))
    with
    | Some _ -> refresh_placement rs.system.Xen.System.machine st
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
    (not disturbed) && st.queue = None
    && Xen.P2m.version st.domain.Xen.Domain.p2m = st.ff_p2m_version
    && (not st.ff_rotated)
    && st.burst_victim < 0
    && (st.ff_io = 0.0
       || st.ff_io = st.spec.Config.app.Workloads.App.disk_mb_s *. 1e6 *. Config.epoch_len)
    && st.migrations = st.ff_migrations
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
      && slots_bits_equal snap.slots st.slots
      && Int64.bits_of_float snap.io = Int64.bits_of_float st.ff_io;
    snap.epoch <- e;
    copy_slots ~from:st.slots ~into:snap.slots;
    snap.io <- st.ff_io
  end

let full_epoch rs ~disturbed =
  compute_stage rs;
  clamp_bandwidth rs;
  List.iter (fun st -> if vm_running st then throughput_stage rs st) rs.states;
  Numa.Counters.end_epoch rs.counters ~duration:Config.epoch_len;
  (* Latency feedback: the memo from this epoch's counters (a degraded
     destination controller behaves like a saturated one: retries and
     dropped bandwidth inflate latency). *)
  Numa.Counters.fill_latency rs.counters rs.cfg.Config.machine.Numa.Machine_desc.latency
    ~bw_factor:rs.bw_factor ~into:rs.lat_memo;
  List.iter
    (fun st ->
      if vm_running st then begin
        latency_stage rs st;
        page_churn rs st;
        tick rs st;
        carrefour_period rs st;
        if rs.cfg.Config.fast_forward then arm rs st ~disturbed
      end)
    rs.states

(* --- Observer, step, finish ---------------------------------------- *)

let observe rs =
  match rs.cfg.Config.observer with
  | None -> ()
  | Some observer ->
      let progress st =
        let total = work_left st in
        let work = float_of_int st.spec.Config.threads *. st.work_per_thread in
        Float.max 0.0 (Float.min 1.0 (1.0 -. (total /. work)))
      in
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
              (fun st ->
                ( st.spec.Config.app.Workloads.App.name,
                  let sums = st.sums in
                  if sums.total_accesses > 0.0 then sums.local_accesses /. sums.total_accesses
                  else 0.0
                ))
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
  let result =
    {
      Result.vms = List.map (vm_result rs.cfg rs.system) rs.states;
      imbalance = Numa.Counters.imbalance rs.counters;
      interconnect_load = Numa.Counters.interconnect_load rs.counters;
      epochs = rs.epochs;
      replayed_epochs = rs.ff_replayed;
      faults_injected = Faults.Injector.total_injected rs.injector;
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
      rs.states
  end;
  result

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
