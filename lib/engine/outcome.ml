(* An all-float record: OCaml stores its fields unboxed, so the
   per-vCPU updates of the latency reduction allocate nothing. *)
type sums = {
  mutable weighted_lat : float;
  mutable total_accesses : float;
  mutable local_accesses : float;
}

type t = {
  spec : Config.vm_spec;
  domain : Xen.Domain.t;
  manager : Policies.Manager.t;
  slo : (string * float) list;
  sums : sums;
  (* Tail-latency observability: one per-vCPU-per-epoch sample of the
     epoch's mean latency, recorded in the sequential reduction so the
     distribution is bit-identical across --jobs. *)
  lat_hist : Sim.Stats.Histogram.t;
  slo_scratch : float array;  (* running vCPUs' epoch latencies *)
  slo_violations : int array;  (* per objective, spec order *)
  mutable active_epochs : int;  (* epochs in which any vCPU ran work *)
}

let create (cfg : Config.t) (spec : Config.vm_spec) ~domain ~manager =
  {
    spec;
    domain;
    manager;
    slo = cfg.Config.slo;
    sums = { weighted_lat = 0.0; total_accesses = 0.0; local_accesses = 0.0 };
    lat_hist = Sim.Stats.Histogram.create ();
    slo_scratch = Array.make spec.Config.threads 0.0;
    slo_violations = Array.make (List.length cfg.Config.slo) 0;
    active_epochs = 0;
  }

(* An SLO metric's value from a mean latency and a quantile function
   over the latency samples it summarises. *)
let slo_value metric ~mean ~quantile =
  match metric with
  | "mean" -> mean
  | "p50" -> quantile 50.0
  | "p95" -> quantile 95.0
  | "p99" -> quantile 99.0
  | "p999" -> quantile 99.9
  | m -> invalid_arg ("Outcome: unknown SLO metric " ^ m)

(* The latency reduction: weighted, total and local accesses, the
   latency histogram and the epoch's SLO verdicts, in vCPU order — the
   one place latency samples are recorded, so the histogram (and
   everything derived from it) follows vCPU order.  Runs of
   bitwise-equal samples enter the histogram through one [add_n], which
   leaves the very same sums as one [add] per sample.  The SLO
   accounting only reads the epoch's latencies — no RNG, no traffic, no
   trace — so a run with objectives stays bit-identical to one
   without. *)
let reduce_latency t ~thread_node (s : Slots.t) =
  let nodes = Array.length s.Slots.dst / t.spec.Config.threads in
  let running = ref 0 in
  let ep_wlat = ref 0.0 in
  let ep_total = ref 0.0 in
  let run_v = ref 0.0 in
  let run_n = ref 0 in
  for th = 0 to t.spec.Config.threads - 1 do
    let total = s.Slots.total.(th) in
    if total > 0.0 then begin
      let lat = s.Slots.lat.(th) in
      let w = total *. lat in
      let sums = t.sums in
      sums.weighted_lat <- sums.weighted_lat +. w;
      sums.total_accesses <- sums.total_accesses +. total;
      sums.local_accesses <- sums.local_accesses +. s.Slots.dst.((th * nodes) + thread_node.(th));
      if !run_n > 0 && Int64.bits_of_float lat = Int64.bits_of_float !run_v then incr run_n
      else begin
        if !run_n > 0 then Sim.Stats.Histogram.add_n t.lat_hist !run_v !run_n;
        run_v := lat;
        run_n := 1
      end;
      t.slo_scratch.(!running) <- lat;
      incr running;
      ep_wlat := !ep_wlat +. w;
      ep_total := !ep_total +. total
    end
  done;
  if !run_n > 0 then Sim.Stats.Histogram.add_n t.lat_hist !run_v !run_n;
  if t.slo <> [] && !running > 0 then begin
    t.active_epochs <- t.active_epochs + 1;
    let samples = Array.sub t.slo_scratch 0 !running in
    (* Read outside the closure, so the accumulators stay unboxed. *)
    let mean = !ep_wlat /. !ep_total in
    List.iteri
      (fun i (metric, target) ->
        let value = slo_value metric ~mean ~quantile:(Sim.Stats.percentile samples) in
        if value > target then t.slo_violations.(i) <- t.slo_violations.(i) + 1)
      t.slo
  end

let local_fraction t =
  if t.sums.total_accesses > 0.0 then t.sums.local_accesses /. t.sums.total_accesses else 0.0

let vm_degradation manager =
  let d = Policies.Manager.degrade manager in
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

let vm_result t (cfg : Config.t) system churn ~finish ~sync_overhead ~migrations ~walk_cpi =
  let spec = t.spec in
  let app = spec.Config.app in
  let domain = t.domain in
  let threads = spec.Config.threads in
  let page_scale = Memory.Machine.page_scale system.Xen.System.machine in
  let compute_time = Array.fold_left Float.max 0.0 finish in
  if Workloads.App.uses_disk app then
    Xen.Domain.charge domain Xen.Domain.Io
      (Workloads.App.disk_bytes_total app /. float_of_int app.Workloads.App.io_block_bytes
      *. Xen.Costs.disk_request_overhead system.Xen.System.costs
           (Cost_model.io_path cfg.Config.mode spec.Config.policy));
  Xen.Domain.charge domain Xen.Domain.Release (Churn.overhead churn ~active_seconds:compute_time);
  let p2m = domain.Xen.Domain.p2m in
  let pt_count f = match Policies.Manager.pt t.manager with Some pt -> f pt | None -> 0 in
  let avg_latency_cycles =
    if t.sums.total_accesses > 0.0 then t.sums.weighted_lat /. t.sums.total_accesses else 0.0
  in
  let latency =
    let h = t.lat_hist in
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
            ~quantile:(Sim.Stats.Histogram.percentile t.lat_hist)
        in
        {
          Result.metric;
          target;
          value;
          violation_epochs = t.slo_violations.(i);
          active_epochs = t.active_epochs;
          burn_rate =
            (if t.active_epochs = 0 then 0.0
             else float_of_int t.slo_violations.(i) /. float_of_int t.active_epochs);
          violated = value > target;
        })
      t.slo
  in
  {
    Result.app_name = app.Workloads.App.name;
    policy = Policies.Spec.name spec.Config.policy;
    completion = Xen.Domain.completion domain ~compute_time ~page_scale ~threads;
    compute_time;
    io_overhead = Xen.Domain.spent domain Xen.Domain.Io;
    sync_overhead;
    virt_overhead = Xen.Domain.virt_overhead domain ~page_scale ~threads;
    release_overhead = Xen.Domain.spent domain Xen.Domain.Release;
    faults = Xen.Domain.faults domain;
    migrations;
    avg_latency_cycles;
    local_fraction = local_fraction t;
    superpages = Xen.P2m.superpage_count p2m;
    superpage_fraction = Cost_model.superpage_fraction p2m;
    splinters = Xen.P2m.splinter_count p2m;
    promotes = Xen.P2m.promote_count p2m;
    superpage_migrates = (Policies.Manager.stats t.manager).Policies.Manager.superpage_migrates;
    walk_cycles_per_instr = walk_cpi;
    pt_replica_updates = pt_count Xen.Pt.replica_updates;
    pt_replica_invalidations = pt_count Xen.Pt.replica_invalidations;
    pt_replica_time = Xen.Domain.spent domain Xen.Domain.Pt_replica;
    latency;
    slo;
    degradation = vm_degradation t.manager;
  }

let commit_metrics (result : Result.t) ts =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "engine.runs";
    Obs.Metrics.incr ~by:result.Result.epochs "engine.epochs";
    Obs.Metrics.incr ~by:result.Result.faults_injected "engine.faults_injected";
    List.iter2
      (fun t (vm : Result.vm_result) ->
        Obs.Metrics.observe "engine.vm.completion_s" vm.Result.completion;
        Obs.Metrics.observe "engine.vm.virt_overhead_s" vm.Result.virt_overhead;
        Obs.Metrics.incr ~by:vm.Result.migrations "engine.migrations";
        Obs.Metrics.incr ~by:vm.Result.faults "engine.faults";
        List.iter
          (fun (s : Result.slo_row) ->
            if s.Result.violated then Obs.Metrics.incr "engine.slo.violated_objectives";
            Obs.Metrics.incr ~by:s.Result.violation_epochs "engine.slo.violation_epochs")
          vm.Result.slo;
        (* Bucket counts are additive, so the registry histogram is the
           same whatever the sweep's worker count or run order. *)
        Obs.Metrics.merge_histogram "engine.vm.latency_cycles" t.lat_hist;
        if t.spec.Config.pt_walk then
          Obs.Metrics.observe "engine.pt.walk_cycles_per_instr" vm.Result.walk_cycles_per_instr;
        match Policies.Manager.pt t.manager with
        | Some pt when Xen.Pt.replicated pt ->
            Obs.Metrics.incr ~by:(Xen.Pt.replica_updates pt) "engine.pt.replica_updates";
            Obs.Metrics.incr ~by:(Xen.Pt.replica_invalidations pt)
              "engine.pt.replica_invalidations";
            Obs.Metrics.observe "engine.pt.replica_time_s" vm.Result.pt_replica_time
        | Some _ | None -> ())
      ts result.Result.vms
  end
