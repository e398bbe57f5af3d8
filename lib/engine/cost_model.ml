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

(* Fraction of the mapped guest frames behind 2 MiB P2M entries. *)
let superpage_fraction p2m =
  let mapped = Xen.P2m.mapped_count p2m in
  if mapped = 0 then 0.0 else float_of_int (Xen.P2m.superpage_frames p2m) /. float_of_int mapped

(* Guest-level huge pages ([huge_pages]) assume the whole footprint is
   huge-mapped.  Otherwise the TLB reach follows the live fraction of
   guest memory behind 2 MiB P2M entries, which first-touch
   invalidations splinter and the promotion scan re-coalesces; without
   P2M superpages that fraction stays 0, the 4 KiB path. *)
let huge_fraction (spec : Config.vm_spec) p2m =
  if spec.Config.huge_pages then 1.0 else superpage_fraction p2m

(* TLB walk cycles per instruction: ~0.3 memory accesses per
   instruction, each missing the TLB per the coverage model; nested
   paging makes every walk ~3x dearer, huge pages make walks rare.  At
   a [huge_fraction] of 0 or 1 the blend is the flat 4 KiB or 2 MiB
   cost bit for bit. *)
let tlb_hot_access_share (app : Workloads.App.t) =
  Float.min 0.95 (0.45 +. (0.4 *. app.Workloads.App.zipf_s))

let walk_cpi (cfg : Config.t) (spec : Config.vm_spec) ~huge_fraction =
  let app = spec.Config.app in
  0.3
  *. Guest.Tlb.cycles_per_access_mixed Guest.Tlb.opteron ~huge_fraction
       ~virtualized:(cfg.Config.mode <> Config.Linux)
       ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
       ~hot_access_share:(tlb_hot_access_share app)

(* Radix pricing (--pt-walk): each walk level is charged at the static
   latency of the node backing the page tables, normalised to the
   local latency the flat model assumes and averaged over the threads.
   Every level lives on one node, so one ratio prices them all.  Ratios
   use unsaturated latencies — the walk term prices the tables'
   placement, not the epoch's congestion — so on a topology where every
   walk is local (one node, or replicated tables) the sum collapses
   back to the flat constant by construction. *)
let walk_cpi_radix (cfg : Config.t) (spec : Config.vm_spec) ~huge_fraction ~(pt : Xen.Pt.t)
    ~(thread_node : int array) ~topo ~latency =
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
  0.3
  *. Guest.Tlb.cycles_per_access_mixed_radix Guest.Tlb.opteron ~huge_fraction
       ~virtualized:(cfg.Config.mode <> Config.Linux)
       ~footprint_bytes:(app.Workloads.App.footprint_mb * 1024 * 1024)
       ~hot_access_share:(tlb_hot_access_share app) ~ratio

(* Blocking events that actually halt a CPU.  Network servers wait
   several times per request (packet, locks), hence the factor; above
   ~25k halts/s wake-ups coalesce — a loaded CPU finds new work before
   it can halt — which bounds the exposure. *)
let blocking_events_per_s app =
  let base = Workloads.App.sync_events_per_s app in
  let scaled = if app.Workloads.App.net_service then 3.0 *. base else base in
  Float.min 25_000.0 scaled

let epoch_sync_overhead (cfg : Config.t) (spec : Config.vm_spec) =
  let costs = costs_of_mode cfg.Config.mode in
  let events = blocking_events_per_s spec.Config.app *. Config.epoch_len in
  (* MCS waiters spin on a queue flag and never leave the CPU; a futex
     sleep pays two context switches plus the wake-up. *)
  let per_event =
    if spec.Config.use_mcs then 0.0
    else (2.0 *. costs.Xen.Costs.context_switch) +. wakeup_of_mode costs cfg.Config.mode
  in
  let total = events *. per_event in
  let threads = float_of_int spec.Config.threads in
  Float.min (0.85 *. Config.epoch_len) (total /. threads)
