type stats = {
  mutable populated_1g : int;
  mutable populated_2m : int;
  mutable populated_4k : int;
  mutable invalidated : int;
  mutable left_in_place : int;
  mutable first_touch_maps : int;
  mutable splinters : int;
  mutable promotes : int;
  mutable superpage_migrates : int;
}

(* Graceful-degradation machinery.  Migration failures back off and
   retry; persistent failures land in a bounded per-domain retry queue
   drained in later epochs; a circuit breaker suspends the Carrefour
   heuristics when the recent failure rate is too high and, after
   repeated trips, degrades the domain to a static placement. *)
let max_migrate_retries = 3
let backoff_base = 2e-5 (* seconds; doubles per retry *)
let pending_cap = 4096
let drain_budget = 64 (* deferred migrations retried per epoch *)
let breaker_min_attempts = 8
let breaker_threshold = 0.5
let breaker_cooldown = 30 (* epochs the breaker stays open per trip *)
let carrefour_period = 10 (* epochs between user-component runs: once per second of 0.1 s epochs *)
let reconcile_period = 50 (* epochs between P2M<->free-list sweeps *)
let promote_period = 10 (* epochs between promotion scans *)
let promote_budget = 2 (* extents coalesced per scan *)
let promote_scan_extents = 512 (* extents examined per scan *)
let evac_budget = 512 (* frames moved off a failing node per epoch *)
let batch_cap = max drain_budget evac_budget

type degrade = {
  mutable migrate_retries : int;
  mutable backoff_time : float;
  mutable deferred : int;
  mutable drained : int;
  mutable fallback_maps : int;
  mutable breaker_trips : int;
  mutable breaker_level : int;
  mutable lost_batches : int;
  mutable reconciled : int;
  mutable ecc_ce : int;
  mutable ecc_ue : int;
  mutable offlined : int;
  mutable evacuated : int;
  mutable evac_epochs : int;
}

let fresh_degrade () =
  {
    migrate_retries = 0;
    backoff_time = 0.0;
    deferred = 0;
    drained = 0;
    fallback_maps = 0;
    breaker_trips = 0;
    breaker_level = 0;
    lost_batches = 0;
    reconciled = 0;
    ecc_ce = 0;
    ecc_ue = 0;
    offlined = 0;
    evacuated = 0;
    evac_epochs = 0;
  }

(* Grouped-migration scratch, shared by the deferred-queue drain and the
   node evacuation, which run one after the other in [epoch_tick].
   Entry i moves [pfns.(i)] along the (src, dst) node pair
   [keys.(i) = src * nodes + dst]; a negative key moves nothing. *)
type batch = {
  pfns : int array;
  keys : int array;
  group : int array;  (* the pfns of the group being migrated *)
  mfns : int array;  (* their target frames *)
}

type t = {
  system : Xen.System.t;
  domain : Xen.Domain.t;
  mutable spec : Spec.t;
  rng : Sim.Rng.t;
  stats : stats;
  mutable rr_cursor : int;  (* round-robin cursor over home nodes *)
  mutable carrefour : Carrefour.System_component.t option;
  carrefour_config : Carrefour.User_component.config;
  degrade : degrade;
  pending : (Memory.Page.pfn * Numa.Topology.node) Queue.t;
  superpages : bool;
  pt : Xen.Pt.t option;  (* page-table placement; Some iff the walk
                            model or replication is enabled *)
  mutable promote_cursor : int;  (* rotating extent cursor of the scan *)
  mutable epoch : int;
  mutable breaker_attempts : int;  (* migration window since last evaluation *)
  mutable breaker_failures : int;
  mutable breaker_open_until : int;  (* epoch; -1 = closed *)
  mutable breaker_was_open : bool;  (* for the cooldown-close trace event *)
  mutable inv_buf : int array;  (* a batch's Release pfns, grows on demand *)
  mutable free_reported : bool;  (* the last tick carried the guest free list *)
  batch : batch;
  (* Node-evacuation engine (RAS): while [evac_node >= 0] every epoch
     moves up to [evac_budget] resident frames off that node. *)
  mutable evac_node : int;  (* -1 = no evacuation in progress *)
  mutable evac_cursor : int;  (* pfn scan cursor, persists across epochs *)
  mutable evac_rr : int;  (* round-robin cursor over surviving nodes *)
  mutable evac_backoff : int;  (* consecutive ENOMEM epochs, for backoff *)
  mutable evac_started : int;  (* epoch the evacuation was requested *)
}

(* Trace emission for this domain's stream; a branch-and-return no-op
   while no session is installed on the system. *)
let emit ?pfn ?node ?arg t cls =
  match t.system.Xen.System.obs with
  | None -> ()
  | Some stream ->
      Obs.Stream.emit ~domain:t.domain.Xen.Domain.id ?pfn ?node ?arg stream cls

let fresh_stats () =
  {
    populated_1g = 0;
    populated_2m = 0;
    populated_4k = 0;
    invalidated = 0;
    left_in_place = 0;
    first_touch_maps = 0;
    splinters = 0;
    promotes = 0;
    superpage_migrates = 0;
  }

(* First online node ≥ 0 in numeric order, for the last-resort fallback
   when every home node has left the mask. *)
let any_online_node topo =
  let nodes = Numa.Topology.node_count topo in
  let rec go n =
    if n >= nodes then None
    else if Numa.Topology.node_online topo n then Some n
    else go (n + 1)
  in
  go 0

let next_home_node t =
  let topo = t.system.Xen.System.topo in
  let home = t.domain.Xen.Domain.home_nodes in
  let k = Array.length home in
  (* Round-robin over the home nodes, skipping any that left the
     dynamic node mask.  The cursor advances exactly once per call when
     every home node is online, so healthy runs are bit-identical to
     the pre-RAS placement.  A loop, not a local recursive function,
     so that a pick allocates nothing: the fault path and the boot's
     single-frame steps pick once per frame. *)
  let picked = ref (-1) and attempts = ref 0 in
  while !picked < 0 do
    let node = home.(t.rr_cursor mod k) in
    t.rr_cursor <- t.rr_cursor + 1;
    if Numa.Topology.node_online topo node then picked := node
    else if !attempts + 1 < k then incr attempts
    else
      picked :=
        match any_online_node topo with
        | Some n -> n
        | None -> node (* whole machine failing; allocation will fail anyway *)
  done;
  !picked

let map_or_fail t pfn node =
  match Internal.map_page t.system t.domain ~pfn ~node with
  | Ok _ -> ()
  | Error `Enomem -> invalid_arg "Manager: machine out of memory while populating domain"

(* Real 4 KiB frames in one superpage extent: sp_frames simulated
   frames, each standing for page_scale real frames. *)
let sp_frames_4k t =
  Xen.P2m.sp_frames t.domain.Xen.Domain.p2m
  * Memory.Machine.page_scale t.system.Xen.System.machine

(* Record one demotion done on this policy's behalf (the P2M keeps its
   own cumulative counter; this is the policy-visible accounting plus
   trace/metrics).  The time is charged by the caller: the fault path,
   the page-ops hypercall and the migration path each fold it into their
   own cost totals. *)
let note_splinter t ~pfn =
  t.stats.splinters <- t.stats.splinters + 1;
  emit ~pfn ~arg:(Xen.P2m.sp_frames t.domain.Xen.Domain.p2m) t Obs.Event.Splinter;
  if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.superpage.splinters"

(* Eager 4 KiB round-robin over the home nodes (Linux interleave).

   The placement is per-frame (pfn i goes to home node i mod k — that
   is the point of the policy), but the machine frames backing it need
   not be carved one by one: each node keeps a cache of frames peeled
   off a 2 MiB buddy block, refilled on demand, so the per-frame buddy
   walk (order-0 set lookup, removal, split chain) is paid once per
   block instead of once per frame.  When no block is free on a node
   the per-frame fallback path takes over for that frame, preserving
   the old exhaustion behaviour.

   Nor are the P2M entries written one by one.  While the k home nodes
   are distinct and online, the next frames pick home.((rr_cursor + j)
   mod k) in turn, so as long as every one of those nodes has frames
   cached the next rows of k frames are one interleaved run
   ([P2m.set_run], one lane per node).  A frame that needs a refill or
   the fallback, and every frame when some home node is offline, takes
   the single-frame step; a run window makes no allocator call, so the
   allocator (and its fault-injection veto) sees the calls of the
   frame-by-frame loop, in the same order. *)
let populate_round_4k t =
  let machine = t.system.Xen.System.machine in
  let topo = t.system.Xen.System.topo in
  let p2m = t.domain.Xen.Domain.p2m in
  let frames = t.domain.Xen.Domain.mem_frames in
  let nodes = Numa.Topology.node_count topo in
  let order = Memory.Machine.order_2m machine in
  let block = 1 lsl order in
  let cache_mfn = Array.make nodes 0 in
  let cache_left = Array.make nodes 0 in
  let home = t.domain.Xen.Domain.home_nodes in
  let k = Array.length home in
  let rotating =
    Array.for_all (Numa.Topology.node_online topo) home
    && List.length (List.sort_uniq Int.compare (Array.to_list home)) = k
  in
  let lane_node = Array.make k 0 and bases = Array.make k 0 in
  (* Rows of k frames every lane can serve from its cache; 0 when the
     next frame needs the single-frame step, found at the first empty
     lane. *)
  let window_rows pfn =
    if not rotating then 0
    else begin
      let first = t.rr_cursor mod k in
      let rows = ref ((frames - pfn) / k) and j = ref 0 in
      while !rows > 0 && !j < k do
        let node = home.((first + !j) mod k) in
        lane_node.(!j) <- node;
        rows := Int.min !rows cache_left.(node);
        incr j
      done;
      !rows
    end
  in
  let pfn = ref 0 in
  while !pfn < frames do
    let rows = window_rows !pfn in
    if rows > 0 then begin
      for j = 0 to k - 1 do
        bases.(j) <- cache_mfn.(lane_node.(j))
      done;
      Xen.P2m.set_run p2m ~pfn:!pfn ~rows ~bases ~writable:true;
      for j = 0 to k - 1 do
        let node = lane_node.(j) in
        cache_mfn.(node) <- cache_mfn.(node) + rows;
        cache_left.(node) <- cache_left.(node) - rows
      done;
      t.rr_cursor <- t.rr_cursor + (rows * k);
      t.stats.populated_4k <- t.stats.populated_4k + (rows * k);
      pfn := !pfn + (rows * k)
    end
    else begin
      let node = next_home_node t in
      (if cache_left.(node) > 0 then begin
         let mfn = cache_mfn.(node) in
         cache_mfn.(node) <- mfn + 1;
         cache_left.(node) <- cache_left.(node) - 1;
         Xen.P2m.set p2m !pfn ~mfn ~writable:true
       end
       else
         match Memory.Machine.alloc_on machine ~node ~order with
         | Some base ->
             Memory.Machine.split_block machine ~mfn:base ~order;
             cache_mfn.(node) <- base + 1;
             cache_left.(node) <- block - 1;
             Xen.P2m.set p2m !pfn ~mfn:base ~writable:true
         | None -> map_or_fail t !pfn node);
      t.stats.populated_4k <- t.stats.populated_4k + 1;
      incr pfn
    end
  done;
  (* Return unused cached frames; they were split to order 0 already. *)
  for node = 0 to nodes - 1 do
    Memory.Machine.free_run machine ~mfn:cache_mfn.(node) ~frames:cache_left.(node)
  done

(* Xen's historical allocator: 1 GiB regions round-robin over the home
   nodes, falling back to 2 MiB then 4 KiB chunks under fragmentation.
   The first and last guest GiB are always fragmented (BIOS and I/O
   holes), so they take the fine-grained path. *)
let populate_round_1g t =
  let machine = t.system.Xen.System.machine in
  let frames = t.domain.Xen.Domain.mem_frames in
  let scale = Memory.Machine.page_scale machine in
  let per_1g = max 1 (Memory.Page.frames_per_1g / scale) in
  let per_2m = max 1 (Memory.Page.frames_per_2m / scale) in
  let order_1g = Memory.Machine.order_1g machine in
  let order_2m = Memory.Machine.order_2m machine in
  let spans = (frames + per_1g - 1) / per_1g in
  (* Under superpages, an aligned contiguous block is installed as
     2 MiB P2M entries rather than per-frame ones — this is where
     round-1G earns its TLB reach.  Both the 1 GiB and the 2 MiB
     population paths hand us blocks aligned to the extent size (buddy
     blocks are naturally aligned), so the per-frame tail only appears
     on fragmented remainders. *)
  let p2m = t.domain.Xen.Domain.p2m in
  let sp = Xen.P2m.sp_frames p2m in
  let map_block pfn0 mfn0 count =
    let chunks =
      if t.superpages && sp > 1 && pfn0 mod sp = 0 && mfn0 mod sp = 0 then count / sp else 0
    in
    for c = 0 to chunks - 1 do
      Xen.P2m.map_superpage p2m ~pfn:(pfn0 + (c * sp)) ~mfn:(mfn0 + (c * sp)) ~writable:true
    done;
    let mapped = chunks * sp in
    Xen.P2m.set_run p2m ~pfn:(pfn0 + mapped) ~rows:(count - mapped) ~bases:[| mfn0 + mapped |]
      ~writable:true
  in
  let populate_4k pfn0 count =
    for i = 0 to count - 1 do
      map_or_fail t (pfn0 + i) (next_home_node t);
      t.stats.populated_4k <- t.stats.populated_4k + 1
    done
  in
  let populate_2m pfn0 count =
    let chunks = count / per_2m in
    for c = 0 to chunks - 1 do
      let pfn = pfn0 + (c * per_2m) in
      match Memory.Machine.alloc_on machine ~node:(next_home_node t) ~order:order_2m with
      | Some mfn ->
          Memory.Machine.split_block machine ~mfn ~order:order_2m;
          map_block pfn mfn per_2m;
          t.stats.populated_2m <- t.stats.populated_2m + 1
      | None -> populate_4k pfn per_2m
    done;
    let rest = count mod per_2m in
    if rest > 0 then populate_4k (pfn0 + (chunks * per_2m)) rest
  in
  for g = 0 to spans - 1 do
    let pfn0 = g * per_1g in
    let count = min per_1g (frames - pfn0) in
    let fragmented = g = 0 || g = spans - 1 || count < per_1g in
    if fragmented then populate_2m pfn0 count
    else begin
      match Memory.Machine.alloc_on machine ~node:(next_home_node t) ~order:order_1g with
      | Some mfn ->
          Memory.Machine.split_block machine ~mfn ~order:order_1g;
          map_block pfn0 mfn count;
          t.stats.populated_1g <- t.stats.populated_1g + 1
      | None -> populate_2m pfn0 count
    end
  done

let statically_degraded t = t.degrade.breaker_level >= 2

let push_pending t ~pfn ~node =
  if not (statically_degraded t) then begin
    if Queue.length t.pending >= pending_cap then begin
      (* Bounded queue: shed the oldest debt rather than grow without
         limit under a persistent fault. *)
      ignore (Queue.pop t.pending)
    end;
    Queue.push (pfn, node) t.pending;
    t.degrade.deferred <- t.degrade.deferred + 1;
    emit ~pfn ~node t Obs.Event.Migrate_defer;
    if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.migrate.deferred"
  end

let install_fault_handler t =
  t.domain.Xen.Domain.fault_handler <-
    Some
      (fun pfn ~cpu ->
        let node =
          if statically_degraded t then next_home_node t
          else
            match t.spec.Spec.placement with
            | Spec.First_touch ->
                let touched = Numa.Topology.node_of_cpu t.system.Xen.System.topo cpu in
                (* First-touch on a failing node falls back to the
                   round-robin pick: the memory must land somewhere that
                   is still in the mask. *)
                if Numa.Topology.node_online t.system.Xen.System.topo touched then touched
                else next_home_node t
            | Spec.Round_4k | Spec.Round_1g -> next_home_node t
        in
        emit ~pfn ~node ~arg:cpu t Obs.Event.Page_fault;
        match Internal.map_page t.system t.domain ~pfn ~node with
        | Ok mfn ->
            t.stats.first_touch_maps <- t.stats.first_touch_maps + 1;
            let actual = Memory.Machine.node_of_mfn t.system.Xen.System.machine mfn in
            emit ~pfn ~node:actual ~arg:cpu t Obs.Event.First_touch;
            if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.fault.first_touch_maps";
            if actual <> node then begin
              (* The wanted node was exhausted and the allocator fell
                 back elsewhere.  Record the misplacement debt: a later
                 drain re-migrates the page home. *)
              t.degrade.fallback_maps <- t.degrade.fallback_maps + 1;
              push_pending t ~pfn ~node
            end
        | Error `Enomem -> ())

(* The domain's one P2M update observer.  With page-table mirrors it
   charges them for every update; while Carrefour is live it keeps the
   heat table's node column current.  It reads [t.carrefour] at call
   time, so a policy switch or a degradation needs no re-install.  It
   is installed when first needed — before the boot population when
   there are mirrors, else when Carrefour starts — so a run with
   neither has no observer; installing it again replaces it with an
   identical one. *)
let observe t =
  let mirrors =
    match t.pt with
    | Some pt when Xen.Pt.replicated pt -> Some (pt, Xen.Pt.replica_count pt)
    | Some _ | None -> None
  in
  let costs = t.system.Xen.System.costs in
  Xen.P2m.set_on_update t.domain.Xen.Domain.p2m
    (Some
       (fun u ->
         (match mirrors with
         | None -> ()
         | Some (pt, replicas) ->
             Xen.Pt.apply pt u;
             Xen.Domain.charge t.domain Xen.Domain.Pt_replica
               (match u with
               | Xen.P2m.Cleared _ | Xen.P2m.Splintered _ ->
                   Xen.Costs.pt_replica_invalidate_time costs ~replicas
               | Xen.P2m.Set _ | Xen.P2m.Superpage_mapped _ | Xen.P2m.Promoted _ ->
                   Xen.Costs.pt_replica_update_time costs ~replicas));
         match t.carrefour with
         | Some sys -> Carrefour.System_component.on_p2m_update sys u
         | None -> ()))

let make_carrefour t =
  observe t;
  Carrefour.System_component.create t.system t.domain

let attach ?(carrefour_config = Carrefour.User_component.default_config) ?(superpages = false)
    ?(pt_walk = false) ?(replicate_pt = false) system domain ~boot ~rng =
  let pt =
    if pt_walk || replicate_pt then
      let home_nodes = domain.Xen.Domain.home_nodes in
      let replicas = if replicate_pt then Array.length home_nodes else 0 in
      Some (Xen.Pt.create ~replicas ~home_node:home_nodes.(0) ())
    else None
  in
  let t =
    {
      system;
      domain;
      spec = boot;
      rng;
      stats = fresh_stats ();
      rr_cursor = 0;
      carrefour = None;
      carrefour_config;
      degrade = fresh_degrade ();
      pending = Queue.create ();
      superpages;
      pt;
      promote_cursor = 0;
      epoch = 0;
      breaker_attempts = 0;
      breaker_failures = 0;
      breaker_open_until = -1;
      breaker_was_open = false;
      inv_buf = [||];
      free_reported = false;
      batch =
        {
          pfns = Array.make batch_cap 0;
          keys = Array.make batch_cap 0;
          group = Array.make batch_cap 0;
          mfns = Array.make batch_cap 0;
        };
      evac_node = -1;
      evac_cursor = 0;
      evac_rr = 0;
      evac_backoff = 0;
      evac_started = 0;
    }
  in
  (* Install the observer before the boot population so the mirrors are
     charged for the primary's whole update stream from its first
     entry.  The boot-time propagation cost is charged like any other
     update; the engine wipes the ledger after setup, exactly as it
     does for the population itself. *)
  (match pt with Some pt when Xen.Pt.replicated pt -> observe t | Some _ | None -> ());
  (match boot.Spec.placement with
  | Spec.Round_4k -> populate_round_4k t
  | Spec.Round_1g -> populate_round_1g t
  | Spec.First_touch -> ());
  if boot.Spec.carrefour then t.carrefour <- Some (make_carrefour t);
  install_fault_handler t;
  domain.Xen.Domain.policy_name <- Spec.name boot;
  t

let stats t = t.stats

let charge_hypercall t id time =
  let time =
    (* Transient failure: the guest retries immediately, paying the
       entry cost a second time for one logical hypercall. *)
    if t.system.Xen.System.faults.Xen.System.hypercall_transient () then
      time +. t.system.Xen.System.costs.Xen.Costs.hypercall_entry
    else time
  in
  Xen.Domain.charge t.domain Xen.Domain.Hypercall time;
  Xen.Hypercall.record ?obs:t.system.Xen.System.obs ~domain:t.domain.Xen.Domain.id id ~time

(* The policy-selection hypercall in two halves: [select_policy]
   charges it and installs the spec, [start_policy] starts or stops
   Carrefour to match and names the policy. *)
let select_policy t new_spec =
  if not (Spec.runtime_selectable new_spec) then
    Error "round-1g is boot-only; the hypercall cannot select it"
  else begin
    charge_hypercall t Xen.Hypercall.Set_numa_policy
      t.system.Xen.System.costs.Xen.Costs.hypercall_entry;
    t.spec <- new_spec;
    Ok ()
  end

let start_policy t =
  (match (t.spec.Spec.carrefour, t.carrefour) with
  | true, None -> t.carrefour <- Some (make_carrefour t)
  | false, Some _ -> t.carrefour <- None
  | true, Some _ | false, None -> ());
  t.domain.Xen.Domain.policy_name <- Spec.name t.spec

let set_policy t new_spec = Result.map (fun () -> start_policy t) (select_policy t new_spec)

let ensure_inv_buf t n =
  if Array.length t.inv_buf < n then begin
    let cap = ref (max 128 (Array.length t.inv_buf)) in
    while !cap < n do
      cap := !cap * 2
    done;
    t.inv_buf <- Array.make !cap 0
  end

(* Apply one batch of first-touch invalidations through a batched P2M
   path ([invalidate ~on_splinter]): one splinter per touched extent,
   amortised cost, the batch event and metrics.  Returns the time to
   add to the hypercall's bill. *)
let invalidate_with t invalidate =
  let costs = t.system.Xen.System.costs in
  let time = ref 0.0 in
  let bstats =
    invalidate ~on_splinter:(fun pfn ->
        (* A first-touch invalidation landing inside a 2 MiB superpage
           demotes the whole extent: every 4 KiB entry pays the
           write-protect→remap cost before the one entry can be cleared
           (the paper's granularity tension made concrete).  A batch
           is applied in pfn order, so this fires at most once per
           extent. *)
        note_splinter t ~pfn;
        time := !time +. Xen.Costs.splinter_time costs ~frames_4k:(sp_frames_4k t))
  in
  t.stats.invalidated <- t.stats.invalidated + bstats.Xen.P2m.applied;
  time := !time +. Xen.Costs.invalidate_batch_time costs ~frames:bstats.Xen.P2m.applied;
  emit ~arg:bstats.Xen.P2m.applied t Obs.Event.P2m_batch;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "xen.p2m.batches";
    Obs.Metrics.observe "xen.p2m.batch_frames" (float_of_int bstats.Xen.P2m.applied)
  end;
  !time

(* The Release ops of one delivered batch, freed frames returned as we
   go. *)
let invalidate_winners t ~n =
  invalidate_with t (fun ~on_splinter ->
      Xen.P2m.invalidate_batch t.domain.Xen.Domain.p2m ~on_splinter
        ~on_free:(fun pfn mfn -> Internal.free_mapped t.system ~pfn ~mfn)
        t.inv_buf ~n)

(* One Page_ops hypercall carrying [n] ops.  The in-transit loss is
   drawn once per batch: a lost batch costs the guest the entry and the
   hypervisor never applies it (released pages keep their stale P2M
   entries until the reconciliation sweep heals them).  A delivered
   batch pays the batch cost plus the time [deliver ()] returns for the
   caller's own invalidation (0.0 when it has none). *)
let page_ops_batch t ~n deliver =
  let costs = t.system.Xen.System.costs in
  if t.system.Xen.System.faults.Xen.System.batch_lost n then begin
    t.degrade.lost_batches <- t.degrade.lost_batches + 1;
    charge_hypercall t Xen.Hypercall.Page_ops costs.Xen.Costs.hypercall_entry;
    costs.Xen.Costs.hypercall_entry
  end
  else begin
    let time = Xen.Costs.page_ops_batch_time costs ~ops:n +. deliver () in
    charge_hypercall t Xen.Hypercall.Page_ops time;
    time
  end

(* Apply one guest batch.  The queue's flush already kept only the
   most recent op per page, so every op is final: an Alloc is left in
   place, a Release is invalidated when the policy invalidates free
   pages. *)
let page_ops_hypercall t ops =
  page_ops_batch t ~n:(Array.length ops) (fun () ->
      let invalidates = Spec.invalidates_free_pages t.spec in
      if invalidates then ensure_inv_buf t (Array.length ops);
      let k = ref 0 in
      Array.iter
        (function
          | Guest.Pv_queue.Alloc _ -> t.stats.left_in_place <- t.stats.left_in_place + 1
          | Guest.Pv_queue.Release pfn ->
              if invalidates then begin
                t.inv_buf.(!k) <- pfn;
                incr k
              end)
        ops;
      if !k > 0 then invalidate_winners t ~n:!k else 0.0)

let release_batch = 128

(* Range release (the policy-switch free-list report): queue-sized
   Release chunks, each one Page_ops hypercall ([page_ops_batch], as
   for [page_ops_hypercall]).  The pfns are consecutive and distinct by
   construction, so no op values and no dedup pass are materialised —
   each chunk goes straight into a range invalidate, which hands back
   the freed machine frames in one buffer rather than through a
   per-frame callback.

   Freed machine frames gather into one open run per node, handed to
   [Memory.Machine.free_run] when the next frame does not extend it
   and at the end.  Deferring the frees is exact: nothing allocates
   during the release, and with eager coalescing the buddy's free sets
   are a function of the set of free frames alone
   ([Memory.Buddy.check_consistent]). *)
let release_free_range t ~first ~count =
  Obs.Profile.span Obs.Profile.Manager_release @@ fun () ->
  let machine = t.system.Xen.System.machine in
  let p2m = t.domain.Xen.Domain.p2m in
  let nodes = Numa.Topology.node_count t.system.Xen.System.topo in
  let run_base = Array.make nodes 0 and run_len = Array.make nodes 0 in
  let flush node =
    Memory.Machine.free_run machine ~mfn:run_base.(node) ~frames:run_len.(node);
    run_len.(node) <- 0
  in
  let freed = Array.make release_batch 0 in
  let total = ref 0.0 in
  let off = ref 0 in
  while !off < count do
    let n = min release_batch (count - !off) in
    let chunk_time =
      page_ops_batch t ~n (fun () ->
          if Spec.invalidates_free_pages t.spec then
            invalidate_with t (fun ~on_splinter ->
                let bstats =
                  Xen.P2m.invalidate_range ~on_splinter p2m ~first:(first + !off) ~n ~freed
                in
                (* Unchecked: applied <= n <= release_batch, and
                   [node_of_mfn] is below the machine's node count. *)
                for i = 0 to bstats.Xen.P2m.applied - 1 do
                  let mfn = Array.unsafe_get freed i in
                  let node = Memory.Machine.node_of_mfn machine mfn in
                  let len = Array.unsafe_get run_len node in
                  if Array.unsafe_get run_base node + len = mfn then
                    Array.unsafe_set run_len node (len + 1)
                  else begin
                    flush node;
                    Array.unsafe_set run_base node mfn;
                    Array.unsafe_set run_len node 1
                  end
                done;
                bstats)
          else 0.0)
    in
    total := !total +. chunk_time;
    off := !off + n
  done;
  for node = 0 to nodes - 1 do
    flush node
  done;
  !total

(* The switch as the guest performs it.  At boot every guest frame is
   free, so the whole free-list report is the range of all of them.
   Carrefour starts after that release: its heat table would be empty
   during it, so the release's updates would change nothing in it, and
   without Carrefour (and without page-table mirrors) the P2M has no
   observer, so the release's chunks are sweeps. *)
let switch t spec =
  if Spec.equal spec t.spec then Ok ()
  else
    match select_policy t spec with
    | Error _ as e -> e
    | Ok () ->
        if Spec.invalidates_free_pages spec then
          ignore (release_free_range t ~first:0 ~count:t.domain.Xen.Domain.mem_frames);
        start_policy t;
        Ok ()

let carrefour t = t.carrefour

let breaker_open t = t.breaker_open_until >= 0 && t.epoch < t.breaker_open_until

let charge_backoff t attempt =
  let pause = backoff_base *. float_of_int (1 lsl attempt) in
  Xen.Domain.charge t.domain Xen.Domain.Migrate pause;
  t.degrade.backoff_time <- t.degrade.backoff_time +. pause

(* [Internal.migrate_page] splinters (and charges for) a surrounding
   superpage when it actually moves the page; observe the transition
   here so the policy stats and the trace record it. *)
let migrate_tracked t ~pfn ~node =
  let was_sp = Xen.P2m.is_superpage t.domain.Xen.Domain.p2m pfn in
  let r = Internal.migrate_page t.system t.domain ~pfn ~node in
  (match r with
  | Ok _ when was_sp && not (Xen.P2m.is_superpage t.domain.Xen.Domain.p2m pfn) ->
      note_splinter t ~pfn
  | Ok _ | Error _ -> ());
  r

let migrate_resilient t ~pfn ~node =
  t.breaker_attempts <- t.breaker_attempts + 1;
  emit ~pfn ~node t Obs.Event.Migrate_start;
  let rec go attempt =
    match migrate_tracked t ~pfn ~node with
    | Ok _ -> true
    | Error `Not_mapped -> false (* page gone; not a memory-pressure signal *)
    | Error `Enomem ->
        if attempt < max_migrate_retries then begin
          t.degrade.migrate_retries <- t.degrade.migrate_retries + 1;
          emit ~pfn ~node ~arg:(attempt + 1) t Obs.Event.Migrate_retry;
          if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.migrate.retries";
          charge_backoff t attempt;
          go (attempt + 1)
        end
        else begin
          t.breaker_failures <- t.breaker_failures + 1;
          push_pending t ~pfn ~node;
          false
        end
  in
  go 0

let degrade_statically t =
  t.degrade.breaker_level <- 2;
  t.carrefour <- None;
  Queue.clear t.pending;
  t.domain.Xen.Domain.policy_name <- Spec.name t.spec ^ "+degraded:round-1g"

let evaluate_breaker t =
  if t.breaker_attempts >= breaker_min_attempts then begin
    let rate = float_of_int t.breaker_failures /. float_of_int t.breaker_attempts in
    if rate > breaker_threshold then begin
      t.degrade.breaker_trips <- t.degrade.breaker_trips + 1;
      t.breaker_open_until <- t.epoch + breaker_cooldown;
      t.breaker_was_open <- true;
      emit ~arg:t.degrade.breaker_trips t Obs.Event.Breaker_trip;
      if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.breaker.trips";
      (* Escalation ladder: repeated trips mean the fault is not
         transient — shed the expensive heuristics first, then give up
         on dynamic placement entirely. *)
      if t.degrade.breaker_trips >= 4 then begin
        let was = t.degrade.breaker_level in
        degrade_statically t;
        if was < 2 then emit ~arg:2 t Obs.Event.Breaker_escalate
      end
      else if t.degrade.breaker_trips >= 2 && t.degrade.breaker_level < 1 then begin
        t.degrade.breaker_level <- 1;
        emit ~arg:1 t Obs.Event.Breaker_escalate
      end
    end;
    t.breaker_attempts <- 0;
    t.breaker_failures <- 0
  end

(* The grouped migration shared by the drain and the evacuation: the
   batch entries [\[0, n)] are grouped by (src, dst) pair, in ascending
   key order, and each group is one [Internal.migrate_group] onto its
   destination, paying the amortised per-pair cost instead of per-page
   setup.  [on_group t ~dst ~gn outcome] does the caller's accounting
   for each group, whose pfns are [t.batch.group.(0..gn-1)].  ENOMEM
   stops the pass with the group's unmoved tail at
   [t.batch.group.(moved..gn-1)]; the result is the failing group's key,
   or -1 when every group went through. *)
let migrate_grouped t ~n ~on_group =
  let b = t.batch in
  let nodes = Numa.Topology.node_count t.system.Xen.System.topo in
  let on_splinter pfn = note_splinter t ~pfn in
  let above = ref (-1) and stopped = ref (-1) in
  while !stopped < 0 && !above < max_int do
    let key = ref max_int in
    for i = 0 to n - 1 do
      let k = b.keys.(i) in
      if k > !above && k < !key then key := k
    done;
    above := !key;
    if !key < max_int then begin
      let gn = ref 0 in
      for i = 0 to n - 1 do
        if b.keys.(i) = !key then begin
          b.group.(!gn) <- b.pfns.(i);
          incr gn
        end
      done;
      let dst = !key mod nodes in
      let outcome =
        Internal.migrate_group t.system t.domain ~on_splinter ~pfns:b.group ~scratch_mfns:b.mfns
          ~n:!gn ~node:dst
      in
      on_group t ~dst ~gn:!gn outcome;
      match outcome with `Done _ -> () | `Enomem _ -> stopped := !key
    end
  done;
  !stopped

(* Drain attempts feed the breaker window too: once Carrefour has been
   shed the retry queue is the only remaining migration traffic, and a
   queue that keeps failing is exactly the signal to stop deferring and
   fall back to static placement.  A transient ENOMEM counts the
   failing page as one more attempt and requeues the group's unmoved
   tail. *)
let drain_group t ~dst ~gn outcome =
  let moved = match outcome with `Done moved | `Enomem moved -> moved in
  t.breaker_attempts <- t.breaker_attempts + moved;
  t.degrade.drained <- t.degrade.drained + moved;
  for i = 0 to moved - 1 do
    emit ~pfn:t.batch.group.(i) ~node:dst t Obs.Event.Migrate_drain
  done;
  if Obs.Metrics.enabled () then Obs.Metrics.incr ~by:moved "policies.migrate.drained";
  match outcome with
  | `Done _ -> ()
  | `Enomem _ ->
      t.breaker_attempts <- t.breaker_attempts + 1;
      t.breaker_failures <- t.breaker_failures + 1;
      for i = moved to gn - 1 do
        Queue.push (t.batch.group.(i), dst) t.pending
      done

(* The epoch's budget is popped in one go.  Expired debts and
   already-home pages resolve as they are popped; the rest migrate in
   (current node, wanted node) groups.  ENOMEM stops the drain for the
   epoch: after the failing group's tail, the entries of every later
   group go back on the queue in the order they were popped. *)
let drain_pending t =
  if (not (breaker_open t)) && not (Queue.is_empty t.pending) then begin
    let b = t.batch in
    let nodes = Numa.Topology.node_count t.system.Xen.System.topo in
    let n = min drain_budget (Queue.length t.pending) in
    for i = 0 to n - 1 do
      let pfn, dst = Queue.pop t.pending in
      b.pfns.(i) <- pfn;
      b.keys.(i) <-
        (match Internal.node_of_pfn t.system t.domain pfn with
        | None ->
            (* Released while deferred: debt expired. *)
            t.breaker_attempts <- t.breaker_attempts + 1;
            -1
        | Some src when src = dst ->
            t.breaker_attempts <- t.breaker_attempts + 1;
            t.degrade.drained <- t.degrade.drained + 1;
            emit ~pfn ~node:src t Obs.Event.Migrate_drain;
            if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.migrate.drained";
            -1
        | Some src -> (src * nodes) + dst)
    done;
    let stopped = migrate_grouped t ~n ~on_group:drain_group in
    if stopped >= 0 then
      for i = 0 to n - 1 do
        if b.keys.(i) > stopped then Queue.push (b.pfns.(i), b.keys.(i) mod nodes) t.pending
      done
  end

(* ------------------------------------------------------------------ *)
(* Hardware RAS: ECC handling and node evacuation                      *)
(* ------------------------------------------------------------------ *)

(* Correctable ECC: the memory controller scrubbed the frame in place.
   The guest only pays a latency blip (modelled as one page's
   write-protect/remap worth of stall) and the heat event is traced. *)
let handle_ecc_ce t ~pfn =
  if pfn < 0 || pfn >= Xen.P2m.frames t.domain.Xen.Domain.p2m then ()
  else
  match Internal.node_of_pfn t.system t.domain pfn with
  | None -> ()
  | Some node ->
      Xen.Domain.charge t.domain Xen.Domain.Migrate
        t.system.Xen.System.costs.Xen.Costs.page_migrate_fixed;
      t.degrade.ecc_ce <- t.degrade.ecc_ce + 1;
      emit ~pfn ~node t Obs.Event.Ecc_ce;
      if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.ras.ecc_ce"

(* Uncorrectable ECC: the backing mfn is poisoned.  Offline it (it
   retires the moment it is freed), copy the guest frame onto a fresh
   mfn and remap — splinter-aware, because the remap of one 4 KiB entry
   demotes a surrounding 2 MiB extent first. *)
let handle_ecc_ue t ~pfn =
  let machine = t.system.Xen.System.machine in
  let p2m = t.domain.Xen.Domain.p2m in
  if pfn < 0 || pfn >= Xen.P2m.frames p2m then ()
  else
  match Xen.P2m.get p2m pfn with
  | Xen.P2m.Invalid -> ()
  | Xen.P2m.Mapped { mfn = old_mfn; writable } ->
      let old_node = Memory.Machine.node_of_mfn machine old_mfn in
      (match Memory.Machine.offline_mfn machine old_mfn with
      | `Offlined | `Pending -> t.degrade.offlined <- t.degrade.offlined + 1
      | `Already -> ());
      t.degrade.ecc_ue <- t.degrade.ecc_ue + 1;
      emit ~pfn ~node:old_node ~arg:old_mfn t Obs.Event.Page_offline;
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr "policies.ras.ecc_ue";
        Obs.Metrics.incr "policies.ras.page_offline"
      end;
      (match Memory.Machine.alloc_frame_fallback machine ~prefer:old_node with
      | None ->
          (* Machine full: the poisoned frame stays mapped (pending)
             until the reconcile/evacuation machinery frees it. *)
          ()
      | Some new_mfn ->
          let costs = t.system.Xen.System.costs in
          let was_sp = Xen.P2m.is_superpage p2m pfn in
          Xen.P2m.set p2m pfn ~mfn:new_mfn ~writable;
          if was_sp && not (Xen.P2m.is_superpage p2m pfn) then begin
            note_splinter t ~pfn;
            Xen.Domain.charge t.domain Xen.Domain.Migrate
              (Xen.Costs.splinter_time costs ~frames_4k:(sp_frames_4k t))
          end;
          Internal.free_mapped t.system ~pfn ~mfn:old_mfn;
          (* The remap and the copy are two charges: one charge of
             their sum would round the ledger differently. *)
          Xen.Domain.charge t.domain Xen.Domain.Migrate costs.Xen.Costs.page_migrate_fixed;
          Xen.Domain.charge t.domain Xen.Domain.Migrate
            (costs.Xen.Costs.copy_byte *. float_of_int (Memory.Machine.frame_bytes machine));
          let new_node = Memory.Machine.node_of_mfn machine new_mfn in
          emit ~pfn ~node:new_node ~arg:old_mfn t Obs.Event.Ecc_ue)

let request_evacuation t ~node =
  if t.evac_node <> node then begin
    t.evac_node <- node;
    t.evac_cursor <- 0;
    t.evac_backoff <- 0;
    t.evac_started <- t.epoch
  end

let cancel_evacuation t ~node = if t.evac_node = node then t.evac_node <- -1

let evacuating t = t.evac_node

(* Round-robin over the surviving online nodes; -1 when none is left. *)
let rec evac_target t topo ~nodes attempts =
  let cand = t.evac_rr mod nodes in
  t.evac_rr <- t.evac_rr + 1;
  if cand <> t.evac_node && Numa.Topology.node_online topo cand then cand
  else if attempts + 1 < nodes then evac_target t topo ~nodes (attempts + 1)
  else -1

(* ENOMEM charges the exponential backoff and spills the group's
   unmoved tail into the deferred queue: the ordinary drain keeps
   retrying it with its own budget even if the next scan pass misses
   these pfns. *)
let evacuate_group t ~dst ~gn outcome =
  let moved = match outcome with `Done moved | `Enomem moved -> moved in
  t.breaker_attempts <- t.breaker_attempts + gn;
  t.degrade.evacuated <- t.degrade.evacuated + moved;
  match outcome with
  | `Done _ ->
      t.evac_backoff <- 0;
      emit ~node:dst ~arg:moved t Obs.Event.Evacuate;
      if Obs.Metrics.enabled () then Obs.Metrics.incr ~by:moved "policies.ras.evacuated"
  | `Enomem _ ->
      t.breaker_failures <- t.breaker_failures + 1;
      charge_backoff t (min t.evac_backoff max_migrate_retries);
      t.evac_backoff <- t.evac_backoff + 1;
      if moved > 0 then emit ~node:dst ~arg:moved t Obs.Event.Evacuate;
      for i = moved to gn - 1 do
        push_pending t ~pfn:t.batch.group.(i) ~node:dst
      done

(* One evacuation step: scan the guest-physical space from the rotating
   cursor, collect up to [evac_budget] frames still resident on the
   failing node, and move them in grouped batches round-robin over the
   surviving online nodes.  A full scan finding nothing resident ends
   the evacuation (the trace records how long the drain took).  ENOMEM
   stops the step and feeds the circuit breaker — under a persistent
   shortage the breaker escalates to interleave-over-surviving-nodes
   exactly like any other migration failure storm. *)
let evacuate_step t =
  if t.evac_node >= 0 then begin
    let topo = t.system.Xen.System.topo in
    let frames = Xen.P2m.frames t.domain.Xen.Domain.p2m in
    let nodes = Numa.Topology.node_count topo in
    let b = t.batch in
    t.degrade.evac_epochs <- t.degrade.evac_epochs + 1;
    (* Collect this epoch's batch behind the cursor. *)
    let collected = ref 0 in
    let scanned = ref 0 in
    while !collected < evac_budget && !scanned < frames do
      let pfn = (t.evac_cursor + !scanned) mod frames in
      incr scanned;
      match Internal.node_of_pfn t.system t.domain pfn with
      | Some n when n = t.evac_node ->
          b.pfns.(!collected) <- pfn;
          incr collected
      | Some _ | None -> ()
    done;
    t.evac_cursor <- (t.evac_cursor + !scanned) mod frames;
    if !collected = 0 && !scanned >= frames then begin
      (* Full pass, nothing resident: this domain is clear of the
         failing node. *)
      emit ~node:t.evac_node ~arg:(t.epoch - t.evac_started) t Obs.Event.Node_drain;
      if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.ras.node_drains";
      t.evac_node <- -1
    end
    else if !collected > 0 then begin
      let n = !collected in
      for i = 0 to n - 1 do
        let dst = evac_target t topo ~nodes 0 in
        b.keys.(i) <- (if dst < 0 then -1 else (t.evac_node * nodes) + dst)
      done;
      ignore (migrate_grouped t ~n ~on_group:evacuate_group)
    end
  end

(* The promotion scan: walk a window of superpage-sized extents behind
   a rotating cursor and re-coalesce the ones whose frames all live on
   one node.  Contiguous aligned extents promote in place (the entries
   are just rebuilt); same-node but scattered extents are migrated onto
   a freshly allocated contiguous buddy block first — a
   superpage-migrate, the expensive variant.  Budgeted per scan so the
   background work cannot dominate an epoch, and entirely
   deterministic: no randomness, cursor order only. *)
let promote_scan t =
  let p2m = t.domain.Xen.Domain.p2m in
  let sp = Xen.P2m.sp_frames p2m in
  if (not t.superpages) || sp <= 1 then 0
  else begin
    let machine = t.system.Xen.System.machine in
    let costs = t.system.Xen.System.costs in
    let extents = Xen.P2m.frames p2m / sp in
    if extents = 0 then 0
    else begin
      let frames_4k = sp_frames_4k t in
      let fpn = Memory.Machine.frames_per_node machine in
      let examined = ref 0 in
      let promoted = ref 0 in
      let to_scan = min extents promote_scan_extents in
      while !examined < to_scan && !promoted < promote_budget do
        let base = (t.promote_cursor + !examined) mod extents * sp in
        incr examined;
        if not (Xen.P2m.is_superpage p2m base) then begin
          (* Classify the extent: fully mapped on one node with uniform
             writability is promotable; contiguity decides the cheap
             vs the copying path.  The verdict is a conjunction over
             the frames, so the walk stops at the first frame that
             breaks it: a hole, a second node, or a writable bit that
             differs from frame 0's.  Node n owns the machine frames
             [n * fpn, (n + 1) * fpn), so the node test is a range test;
             a hole at frame 0 leaves the range empty. *)
          let mfn0 = Xen.P2m.mfn_of p2m base in
          let node = if mfn0 < 0 then -1 else Memory.Machine.node_of_mfn machine mfn0 in
          let lo = if node < 0 then 0 else node * fpn in
          let hi = if node < 0 then 0 else lo + fpn in
          let w0 = Xen.P2m.is_writable p2m base in
          let i = ref 1 in
          while !i < sp do
            let mfn = Xen.P2m.mfn_of p2m (base + !i) in
            if mfn >= lo && mfn < hi && Xen.P2m.is_writable p2m (base + !i) = w0 then incr i
            else i := sp + 1
          done;
          if !i = sp then begin
            if Xen.P2m.promote p2m ~pfn:base then begin
              Xen.Domain.charge t.domain Xen.Domain.Migrate
                (Xen.Costs.promote_time costs ~frames_4k ~copy_bytes:0);
              t.stats.promotes <- t.stats.promotes + 1;
              emit ~pfn:base ~node ~arg:sp t Obs.Event.Promote;
              if Obs.Metrics.enabled () then Obs.Metrics.incr "policies.superpage.promotes";
              incr promoted
            end
            else begin
              match
                Memory.Machine.alloc_on machine ~node ~order:(Memory.Machine.order_2m machine)
              with
              | None -> () (* no contiguous block free on that node *)
              | Some new_base ->
                  Memory.Machine.split_block machine ~mfn:new_base
                    ~order:(Memory.Machine.order_2m machine);
                  for i = 0 to sp - 1 do
                    match Xen.P2m.get p2m (base + i) with
                    | Xen.P2m.Mapped { mfn = old_mfn; writable } ->
                        Xen.P2m.set p2m (base + i) ~mfn:(new_base + i) ~writable;
                        Internal.free_mapped t.system ~pfn:(base + i) ~mfn:old_mfn
                    | Xen.P2m.Invalid -> assert false
                  done;
                  let ok = Xen.P2m.promote p2m ~pfn:base in
                  assert ok;
                  Xen.Domain.charge t.domain Xen.Domain.Migrate
                    (Xen.Costs.promote_time costs ~frames_4k
                       ~copy_bytes:(sp * Memory.Machine.frame_bytes machine));
                  t.stats.superpage_migrates <- t.stats.superpage_migrates + 1;
                  emit ~pfn:base ~node ~arg:sp t Obs.Event.Superpage_migrate;
                  if Obs.Metrics.enabled () then
                    Obs.Metrics.incr "policies.superpage.migrates";
                  incr promoted
            end
          end
        end
      done;
      t.promote_cursor <- (t.promote_cursor + !examined) mod extents;
      !promoted
    end
  end

(* RAS invariant, checked once per run: an offlined machine frame must
   never stay reachable through any P2M — the UE handler and the
   evacuation engine remap before the frame retires.  Nothing maps a
   retired frame again, and moving or dropping such a mapping frees the
   frame a second time, which [Internal.free_mapped] reports: a
   violation either fails the run there or lasts until this check.
   [is_offlined] can only hold once the machine has retired a frame
   (Buddy's offlined count is exactly its number of retired frames), so
   until then the walk is skipped. *)
let audit t =
  let machine = t.system.Xen.System.machine in
  if Memory.Machine.offlined_frames machine > 0 then
    Xen.P2m.iter_mapped t.domain.Xen.Domain.p2m (fun pfn mfn ->
        if Memory.Machine.is_offlined machine mfn then
          invalid_arg
            (Printf.sprintf "Manager.audit: offlined mfn %d still mapped at pfn %d" mfn pfn));
  match t.carrefour with
  | None -> ()
  | Some sys ->
      Carrefour.System_component.iter_nodes sys (fun pfn node ->
          let actual = Carrefour.System_component.node_of sys pfn in
          if node <> actual then
            invalid_arg
              (Printf.sprintf
                 "Manager.audit: heat row of pfn %d caches node %d, the P2M maps node %d" pfn node
                 actual))

let reconcile t ~guest_free =
  let costs = t.system.Xen.System.costs in
  let p2m = t.domain.Xen.Domain.p2m in
  (* The stale entries are the guest-free pfns the P2M still maps.  The
     free list is enumerated instead of the P2M: it is the small side,
     while the P2M spans the whole padded guest space.  Healing runs in
     descending pfn order, which fixes the order of the splinter events,
     the P2M update stream and the frees; the full-P2M oracle in
     test_faults.ml checks it. *)
  let stale =
    List.sort
      (fun a b -> Int.compare b a)
      (List.filter (fun pfn -> Xen.P2m.mfn_of p2m pfn >= 0) guest_free)
  in
  let healed = ref 0 in
  let splinter_time = ref 0.0 in
  List.iter
    (fun pfn ->
      if Xen.P2m.is_superpage p2m pfn then begin
        note_splinter t ~pfn;
        splinter_time :=
          !splinter_time +. Xen.Costs.splinter_time costs ~frames_4k:(sp_frames_4k t)
      end;
      match Xen.P2m.invalidate p2m pfn with
      | Some mfn ->
          Internal.free_mapped t.system ~pfn ~mfn;
          incr healed
      | None -> ())
    stale;
  t.degrade.reconciled <- t.degrade.reconciled + !healed;
  emit ~arg:!healed t Obs.Event.Reconcile_sweep;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "policies.reconcile.sweeps";
    Obs.Metrics.incr ~by:!healed "policies.reconcile.healed"
  end;
  charge_hypercall t Xen.Hypercall.Page_ops
    (costs.Xen.Costs.hypercall_entry
    +. (float_of_int !healed *. costs.Xen.Costs.page_invalidate)
    +. !splinter_time);
  !healed

(* The reconcile rule, stated once: a domain sweeps when its placement
   invalidates free pages and its guest reports its free list on every
   tick — which the engine does under a fault plan, where releases can
   be lost. *)
let sweeps t = t.free_reported && Spec.invalidates_free_pages t.spec

(* The period-gated work, one predicate per period: [epoch_tick] and
   the engine's Carrefour feed fire on exactly these epochs, and
   [boundary_due] is their union. *)
let carrefour_due t ~epoch = Option.is_some t.carrefour && epoch mod carrefour_period = 0

let promote_due t ~epoch =
  t.superpages && (not (statically_degraded t)) && epoch > 0 && epoch mod promote_period = 0

let reconcile_due t ~epoch = sweeps t && epoch > 0 && epoch mod reconcile_period = 0

let boundary_due t ~epoch =
  carrefour_due t ~epoch || promote_due t ~epoch || reconcile_due t ~epoch

let epoch_tick t ~epoch ?guest_free () =
  t.epoch <- epoch;
  (* The breaker closes by cooldown expiry, not by an explicit call:
     detect the open->closed transition here so the trace records it. *)
  if t.breaker_was_open && not (breaker_open t) then begin
    t.breaker_was_open <- false;
    emit ~arg:t.degrade.breaker_trips t Obs.Event.Breaker_cooldown
  end;
  evacuate_step t;
  drain_pending t;
  evaluate_breaker t;
  if promote_due t ~epoch then
    ignore (Obs.Profile.span Obs.Profile.Manager_promote_scan (fun () -> promote_scan t));
  t.free_reported <- Option.is_some guest_free;
  match guest_free with
  | Some guest_free when reconcile_due t ~epoch ->
      ignore (Obs.Profile.span Obs.Profile.Manager_reconcile (fun () -> reconcile t ~guest_free))
  | Some _ | None -> ()

let carrefour_epoch_feed t ~counters ~feed =
  match t.carrefour with
  | None -> None
  | Some sys ->
      if breaker_open t then None
      else begin
        (* The dom0 user component reads metrics through a hypercall. *)
        charge_hypercall t Xen.Hypercall.Carrefour_read_metrics
          t.system.Xen.System.costs.Xen.Costs.hypercall_entry;
        Carrefour.System_component.begin_epoch sys;
        feed sys;
        let report =
          Carrefour.run_epoch
            ~interleave_only:(t.degrade.breaker_level >= 1)
            ~migrate:(fun ~pfn ~node -> migrate_resilient t ~pfn ~node)
            sys ~config:t.carrefour_config ~rng:t.rng ~counters
        in
        evaluate_breaker t;
        Some report
      end

let degrade t = t.degrade
let pending_migrations t = Queue.length t.pending

(* Nothing deferred, nothing in flight: an [epoch_tick] delivered now
   only advances [t.epoch].  The pending queue and evacuation
   engine must be drained, the breaker closed with its cooldown event
   already emitted, and the breaker window below the evaluation
   threshold — [evaluate_breaker] only acts at [breaker_min_attempts],
   so skipping it below that is a no-op, even with a residue of
   attempts left by an old promote scan that will never reach the
   threshold again.  Promote scans and reconcile sweeps are
   period-gated on the epoch number: [boundary_due] names their
   epochs. *)
let quiescent t =
  Queue.is_empty t.pending
  && t.evac_node < 0
  && (not (breaker_open t))
  && (not t.breaker_was_open)
  && t.breaker_attempts < breaker_min_attempts
let superpages_enabled t = t.superpages
let promote_cursor t = t.promote_cursor
let rr_cursor t = t.rr_cursor
let pt t = t.pt

let node_of_pfn t pfn = Internal.node_of_pfn t.system t.domain pfn
