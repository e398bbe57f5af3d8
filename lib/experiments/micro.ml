let us x = x *. 1e-6

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let print_tab3 () =
  let lat = Numa.Amd48.latency in
  print_endline "Table 3: cache and memory access latency on AMD48 (cycles)";
  Report.Table.print
    ~header:[ "cache"; "cycles" ]
    [
      [ "L1 cache"; Printf.sprintf "%.0f" (Numa.Latency.cache_cycles lat Numa.Latency.L1) ];
      [ "L2 cache"; Printf.sprintf "%.0f" (Numa.Latency.cache_cycles lat Numa.Latency.L2) ];
      [ "L3 cache"; Printf.sprintf "%.0f" (Numa.Latency.cache_cycles lat Numa.Latency.L3) ];
    ];
  (* Two independent reproductions: the engine's calibrated analytic
     model and the request-level discrete-event simulator. *)
  let topo = Numa.Amd48.topology () in
  let cycles ns = ns *. Numa.Amd48.freq_hz /. 1e9 in
  Report.Table.print
    ~header:
      [ "memory"; "1 thread (model)"; "1 thread (microsim)"; "48 threads (model)";
        "48 threads (microsim)" ]
    (* Six independent discrete-event simulations (3 distances x 2
       load levels): each probe seeds its own RNG, so the pool runs
       them concurrently with identical output. *)
    (Engine.Pool.map_list
       (fun (label, hops) ->
         let idle = Microsim.Memsim.latency_probe ~topo ~threads:1 ~hops () in
         let contended = Microsim.Memsim.latency_probe ~topo ~threads:48 ~hops () in
         [
           label;
           Printf.sprintf "%.0f cy" (Numa.Latency.mem_cycles lat ~hops ~saturation:0.0);
           Printf.sprintf "%.0f cy" (cycles idle.Microsim.Memsim.mean_latency_ns);
           Printf.sprintf "%.0f cy" (Numa.Latency.mem_cycles lat ~hops ~saturation:1.0);
           Printf.sprintf "%.0f cy" (cycles contended.Microsim.Memsim.mean_latency_ns);
         ])
       [ ("Local", 0); ("Remote (1 hop)", 1); ("Remote (2 hops)", 2) ]);
  Printf.printf
    "random-access controller efficiency (microsim, drives the engine's bandwidth clamp): %.2f\n"
    (Microsim.Memsim.random_access_efficiency ~topo ())

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let print_fig5 () =
  print_endline "Figure 5: IPI cost repartition (ns)";
  Report.Table.print
    ~header:[ "stage"; "native"; "guest" ]
    (List.map
       (fun (s : Xen.Ipi.stage) ->
         [
           s.Xen.Ipi.label;
           Printf.sprintf "%.0f" (s.Xen.Ipi.native *. 1e9);
           Printf.sprintf "%.0f" (s.Xen.Ipi.guest *. 1e9);
         ])
       Xen.Ipi.stages
    @ [
        [
          "total";
          Printf.sprintf "%.0f" (Xen.Ipi.total Xen.Ipi.Native *. 1e9);
          Printf.sprintf "%.0f" (Xen.Ipi.total Xen.Ipi.Guest *. 1e9);
        ];
      ])

(* ------------------------------------------------------------------ *)
(* DMA sweep and the first-touch x IOMMU incompatibility               *)
(* ------------------------------------------------------------------ *)

type dma_row = { block : int; native : float; pv : float; passthrough : float }

let make_io_domain () =
  let system = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
  let domain =
    Xen.System.create_domain system ~name:"io-probe" ~kind:Xen.Domain.DomU ~vcpus:1
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  let rng = Sim.Rng.create ~seed:7 in
  let manager = Policies.Manager.attach system domain ~boot:Policies.Spec.round_4k ~rng in
  let pci = Xen.Pci.amd48 () in
  (match Xen.Pci.assign_bus pci ~bus_id:1 domain with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  (system, domain, manager, pci)

let dma_sweep () =
  let system, domain, _manager, pci = make_io_domain () in
  let read ~path ~bytes =
    let pages = max 1 (bytes / Memory.Page.size_4k) in
    let buffer = List.init pages (fun i -> i) in
    match Xen.Dma.read system domain ~pci ~path ~buffer ~bytes with
    | Ok time -> time
    | Error e -> Format.kasprintf failwith "unexpected DMA error: %a" Xen.Dma.pp_error e
  in
  List.map
    (fun block ->
      {
        block;
        native = read ~path:Xen.Dma.Native ~bytes:block;
        pv = read ~path:Xen.Dma.Pv ~bytes:block;
        passthrough = read ~path:Xen.Dma.Passthrough ~bytes:block;
      })
    [ 4096; 16384; 65536; 262144; 1048576 ]

let print_dma () =
  print_endline "DMA read latency per path (Sections 2.2.2 and 5.3.1)";
  Report.Table.print
    ~header:[ "block"; "native"; "pv"; "passthrough"; "pv ovh"; "pt ovh" ]
    (List.map
       (fun r ->
         [
           Format.asprintf "%a" Sim.Units.pp_bytes r.block;
           Format.asprintf "%a" Sim.Units.pp_seconds r.native;
           Format.asprintf "%a" Sim.Units.pp_seconds r.pv;
           Format.asprintf "%a" Sim.Units.pp_seconds r.passthrough;
           Report.Table.fmt_ratio (r.pv /. r.native);
           Report.Table.fmt_ratio (r.passthrough /. r.native);
         ])
       (dma_sweep ()));
  (* Incompatibility demo (Section 4.4.1): invalid P2M entries abort a
     passthrough DMA asynchronously but recover synchronously on pv. *)
  let system, domain, manager, pci = make_io_domain () in
  (match Policies.Manager.set_policy manager Policies.Spec.first_touch with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let buffer = [ 0; 1; 2; 3 ] in
  ignore (Policies.Manager.release_free_range manager ~first:0 ~count:(List.length buffer));
  print_endline "first-touch x IOMMU incompatibility (Section 4.4.1):";
  (match Xen.Dma.read system domain ~pci ~path:Xen.Dma.Passthrough ~buffer ~bytes:16384 with
  | Ok _ -> print_endline "  passthrough read: unexpectedly succeeded (BUG)"
  | Error e -> Format.printf "  passthrough read: FAILED as expected - %a@." Xen.Dma.pp_error e);
  (match Xen.Dma.read system domain ~pci ~path:Xen.Dma.Pv ~buffer ~bytes:16384 with
  | Ok time ->
      Format.printf "  pv read: recovered via synchronous hypervisor faults (%a)@."
        Sim.Units.pp_seconds time
  | Error e -> Format.printf "  pv read: unexpectedly failed - %a (BUG)@." Xen.Dma.pp_error e)

(* ------------------------------------------------------------------ *)
(* Hypercall batching (Sections 4.2.3 and 4.2.4)                       *)
(* ------------------------------------------------------------------ *)

type batching_report = {
  per_release_unbatched : float;
  per_release_batched : float;
  lock_hold_per_op : float;
      (* Guest-side queue time per op — what the partition lock covers. *)
  invalidate_share : float;
  wrmem_slowdown_unbatched : float;
  wrmem_slowdown_batched : float;
  reallocated_in_queue : int;
  invalidated : int;
}

let batching ?(ops = 100_000) () =
  let system = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
  let domain =
    Xen.System.create_domain system ~name:"churn" ~kind:Xen.Domain.DomU ~vcpus:1
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  let rng = Sim.Rng.create ~seed:11 in
  let manager = Policies.Manager.attach system domain ~boot:Policies.Spec.round_4k ~rng in
  (match Policies.Manager.switch manager Policies.Spec.first_touch with
  | Ok () -> ()
  | Error msg -> failwith msg);
  Xen.Domain.reset_ledger domain;
  let base_stats = Policies.Manager.stats manager in
  let base_invalidated = base_stats.Policies.Manager.invalidated in
  let base_left = base_stats.Policies.Manager.left_in_place in
  let frames = domain.Xen.Domain.mem_frames in
  let queue =
    Guest.Pv_queue.create ~partitions:4 ~capacity:128 ~frames
      ~flush:(Policies.Manager.page_ops_hypercall manager)
      ()
  in
  let pool = Guest.Pfn_pool.create ~frames () in
  let costs = system.Xen.System.costs in
  (* The guest kernel queues each pool operation under the same
     critical section: record the Alloc, then touch the page; release
     the page, then record the Release. *)
  let alloc () =
    let pfn = Guest.Pfn_pool.alloc pool in
    if pfn < 0 then failwith "pool exhausted";
    Guest.Pv_queue.record queue (Guest.Pv_queue.Alloc pfn);
    (match Xen.P2m.get domain.Xen.Domain.p2m pfn with
    | Xen.P2m.Invalid ->
        ignore (Xen.Domain.handle_fault domain ~costs ~pfn ~cpu:domain.Xen.Domain.vcpu_pin.(0))
    | Xen.P2m.Mapped _ -> ());
    pfn
  in
  let release pfn =
    Guest.Pfn_pool.release pool pfn;
    Guest.Pv_queue.record queue (Guest.Pv_queue.Release pfn)
  in
  (* Streamflow-like churn over a 512-page working set: a batch of
     munmaps followed by a batch of mmaps that recycle the frames.
     The window exceeds the queue capacity, so most flushes carry pure
     release batches — reallocation while queued stays rare, as the
     paper assumes. *)
  let window = 512 in
  let ring = Array.init window (fun _ -> alloc ()) in
  let releases = ref 0 in
  let rounds = ops / (2 * window) in
  for _ = 1 to rounds do
    for j = 0 to window - 1 do
      release ring.(j);
      incr releases
    done;
    for j = 0 to window - 1 do
      ring.(j) <- alloc ()
    done
  done;
  Guest.Pv_queue.flush_all queue;
  let qstats = Guest.Pv_queue.stats queue in
  let mstats = Policies.Manager.stats manager in
  let invalidated = mstats.Policies.Manager.invalidated - base_invalidated in
  let reallocated = mstats.Policies.Manager.left_in_place - base_left in
  let refault_time = Xen.Domain.spent domain Xen.Domain.Fault in
  let releases = float_of_int !releases in
  let per_release_batched =
    (qstats.Guest.Pv_queue.guest_time +. refault_time) /. releases
  in
  let invalidate_share =
    float_of_int invalidated *. costs.Xen.Costs.page_invalidate
    /. qstats.Guest.Pv_queue.guest_time
  in
  (* One hypercall per release: world switch, invalidation, and the
     remote TLB shootdown IPIs that batching amortises. *)
  let per_release_unbatched =
    costs.Xen.Costs.hypercall_entry +. costs.Xen.Costs.page_invalidate
    +. (2.0 *. costs.Xen.Costs.ipi_guest)
    +. costs.Xen.Costs.hypervisor_fault +. costs.Xen.Costs.page_map
  in
  let wrmem_rate = 1.0 /. us 15.0 in
  {
    per_release_unbatched;
    per_release_batched;
    lock_hold_per_op =
      qstats.Guest.Pv_queue.guest_time /. float_of_int qstats.Guest.Pv_queue.enqueued;
    invalidate_share;
    wrmem_slowdown_unbatched = 1.0 +. (wrmem_rate *. per_release_unbatched);
    wrmem_slowdown_batched = 1.0 +. (wrmem_rate *. per_release_batched);
    reallocated_in_queue = reallocated;
    invalidated;
  }

let print_batching () =
  let r = batching () in
  print_endline "Hypercall batching (Sections 4.2.3-4.2.4)";
  Report.Table.print
    ~header:[ "strategy"; "cost/release"; "wrmem slowdown" ]
    [
      [
        "hypercall per release";
        Format.asprintf "%a" Sim.Units.pp_seconds r.per_release_unbatched;
        Report.Table.fmt_ratio r.wrmem_slowdown_unbatched;
      ];
      [
        "batched queue (128)";
        Format.asprintf "%a" Sim.Units.pp_seconds r.per_release_batched;
        Report.Table.fmt_ratio r.wrmem_slowdown_batched;
      ];
    ];
  Printf.printf "invalidation share of the batched hypercall: %.1f%% (paper: 87.5%%)\n"
    (100.0 *. r.invalidate_share);
  Printf.printf "pages invalidated: %d; reallocated while queued (left in place): %d\n\n"
    r.invalidated r.reallocated_in_queue;
  (* Queue partitioning: M/M/1 estimate of the lock contention with 48
     cores releasing at wrmem's per-core rate. *)
  (* wrmem's release period is per core: 48 cores at one release per
     15 us each.  The lock is held for the queue work only; the
     re-touch fault happens outside the critical section. *)
  let lambda = 48.0 /. us 15.0 in
  let hold = 2.0 *. r.lock_hold_per_op in
  print_endline "queue partitioning (48 cores at wrmem's release rate, M/M/1 lock estimate)";
  Report.Table.print
    ~header:[ "partitions"; "lock utilisation"; "wait/op"; "effective cost/op" ]
    (List.map
       (fun p ->
         let rho = lambda *. hold /. float_of_int p in
         if rho >= 1.0 then
           [ string_of_int p; Report.Table.fmt_pct rho; "saturated"; "unbounded" ]
         else begin
           let wait = rho /. (1.0 -. rho) *. hold /. 2.0 in
           [
             string_of_int p;
             Report.Table.fmt_pct rho;
             Format.asprintf "%a" Sim.Units.pp_seconds wait;
             Format.asprintf "%a" Sim.Units.pp_seconds (hold +. wait);
           ]
         end)
       [ 1; 2; 4; 16 ])
