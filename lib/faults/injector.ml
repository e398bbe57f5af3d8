type stats = {
  mutable alloc_failures : int;
  mutable migrate_failures : int;
  mutable batches_lost : int;
  mutable ops_dropped : int;
  mutable hypercall_errors : int;
  mutable iommu_faults : int;
  mutable vcpu_stalls : int;
  mutable ecc_ce_errors : int;
  mutable ecc_ue_errors : int;
  mutable node_failures : int;
}

(* One record per [Node_fail] spec, with the window resolved ([until]
   defaults to [from + default_drain_window]) and the target node drawn
   once by [assign_node_targets]. *)
type node_fault = {
  rate : float;
  from_epoch : int;
  until_epoch : int;
  permanent : bool;
  mutable target : int;
  mutable counted : bool;
}

type t = {
  plan : Plan.t;
  rng : Sim.Rng.t;
  mutable epoch : int;
  stats : stats;
  node_faults : node_fault list;
  mutable targets_assigned : bool;
}

let default_drain_window = 50

let fresh_stats () =
  {
    alloc_failures = 0;
    migrate_failures = 0;
    batches_lost = 0;
    ops_dropped = 0;
    hypercall_errors = 0;
    iommu_faults = 0;
    vcpu_stalls = 0;
    ecc_ce_errors = 0;
    ecc_ue_errors = 0;
    node_failures = 0;
  }

let node_faults_of_plan plan =
  List.filter_map
    (fun (s : Plan.spec) ->
      match s.Plan.site with
      | Plan.Node_fail rate ->
          let from_epoch = s.Plan.window.Plan.from_epoch in
          let until_epoch =
            match s.Plan.window.Plan.until_epoch with
            | Some u -> u
            | None -> from_epoch + default_drain_window
          in
          Some
            { rate; from_epoch; until_epoch; permanent = rate >= 1.0;
              target = -1; counted = false }
      | _ -> None)
    plan

let create ~seed plan =
  (match Plan.validate plan with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Faults.Injector.create: " ^ msg));
  (* A private stream: split once so the injector state is decorrelated
     from any workload stream built from the same base seed. *)
  let rng = Sim.Rng.split (Sim.Rng.create ~seed:(seed lxor 0x5DEECE66)) in
  { plan; rng; epoch = -1; stats = fresh_stats ();
    node_faults = node_faults_of_plan plan; targets_assigned = false }

let enabled t = not (Plan.is_empty t.plan)
let set_epoch t epoch = t.epoch <- epoch
let stats t = t.stats

let total_injected t =
  let s = t.stats in
  s.alloc_failures + s.migrate_failures + s.batches_lost + s.ops_dropped
  + s.hypercall_errors + s.iommu_faults + s.vcpu_stalls
  + s.ecc_ce_errors + s.ecc_ue_errors + s.node_failures

let armed t (w : Plan.window) =
  t.epoch >= w.Plan.from_epoch
  && (match w.Plan.until_epoch with None -> true | Some u -> t.epoch < u)

(* Earliest epoch [>= after] at which any plan window (or resolved
   node-fault window) is armed.  Pure arithmetic over the plan — no
   draws, no clock dependence — so the engine's fast-forward can ask
   it of any epoch without perturbing the fault stream.  A permanent
   node failure stays armed past its drain window. *)
let next_armed_epoch t ~after =
  let min_opt acc e =
    match acc with None -> Some e | Some a -> Some (min a e)
  in
  let of_window acc (w : Plan.window) =
    if after < w.Plan.from_epoch then min_opt acc w.Plan.from_epoch
    else
      match w.Plan.until_epoch with
      | None -> min_opt acc after
      | Some u -> if after < u then min_opt acc after else acc
  in
  let acc =
    List.fold_left
      (fun acc (s : Plan.spec) -> of_window acc s.Plan.window)
      None t.plan
  in
  List.fold_left
    (fun acc nf ->
      if after < nf.from_epoch then min_opt acc nf.from_epoch
      else if nf.permanent || after < nf.until_epoch then min_opt acc after
      else acc)
    acc t.node_faults

(* Fold the plan: every armed matching spec draws independently, and
   the fault fires if any draw does.  Draw-per-spec (no short-circuit)
   keeps the stream advance a function of the plan and epoch alone.
   The engine asks every epoch: an empty plan answers unfolded. *)
let query t ~f =
  enabled t
  && List.fold_left
       (fun fired (s : Plan.spec) ->
         if not (armed t s.Plan.window) then fired
         else begin
           match f s.Plan.site with
           | None -> fired
           | Some rate -> Sim.Rng.bernoulli t.rng rate || fired
         end)
       false t.plan

(* ------------------------------------------------------------------ *)
(* Node failure (hardware RAS)                                         *)
(* ------------------------------------------------------------------ *)

(* The target node of each [node_fail] spec is drawn once from the
   private stream, in plan order, before epoch 0 — a pure function of
   (seed, plan, candidates), so grid sweeps stay bit-reproducible.
   [candidates] restricts the draw to nodes worth failing (the engine
   passes the union of guest home nodes, so the failure always lands
   where memory actually lives); one draw either way. *)
let assign_node_targets t ?(candidates = [||]) ~nodes () =
  if not t.targets_assigned then begin
    t.targets_assigned <- true;
    if nodes > 0 then
      List.iter
        (fun nf ->
          nf.target <-
            (if Array.length candidates > 0 then
               candidates.(Sim.Rng.int t.rng (Array.length candidates))
             else Sim.Rng.int t.rng nodes))
        t.node_faults
  end

(* A permanent fault ([rate >= 1.0]) keeps the node failing forever
   once the window opens; a partial fault recovers when it closes. *)
let fault_active nf ~epoch =
  epoch >= nf.from_epoch && (nf.permanent || epoch < nf.until_epoch)

let node_failing t ~node =
  List.exists
    (fun nf ->
      let active = nf.target = node && fault_active nf ~epoch:t.epoch in
      if active && not nf.counted then begin
        nf.counted <- true;
        t.stats.node_failures <- t.stats.node_failures + 1
      end;
      active)
    t.node_faults

let node_offline t ~node =
  List.exists
    (fun nf -> nf.target = node && nf.permanent && t.epoch >= nf.until_epoch)
    t.node_faults

(* Bandwidth multiplier for the node: 1.0 healthy, collapsing linearly
   towards [1 - rate] across the drain window.  Pure — no draws. *)
let node_bandwidth_factor t ~node =
  List.fold_left
    (fun factor nf ->
      if nf.target <> node || not (fault_active nf ~epoch:t.epoch) then factor
      else begin
        let span = float_of_int (max 1 (nf.until_epoch - nf.from_epoch)) in
        let progress =
          Float.min 1.0 (float_of_int (t.epoch - nf.from_epoch + 1) /. span)
        in
        Float.min factor (Float.max 0.0 (1.0 -. (nf.rate *. progress)))
      end)
    1.0 t.node_faults

let node_fail_targets t =
  List.filter_map
    (fun nf -> if nf.target >= 0 then Some nf.target else None)
    t.node_faults

(* ------------------------------------------------------------------ *)
(* ECC events                                                          *)
(* ------------------------------------------------------------------ *)

type ecc_event = Ce of int | Ue of int

(* Each armed ECC spec draws a bernoulli AND a uniform pfn on every
   query, fired or not: the stream advance stays a function of the
   plan and epoch alone, never of which faults happened to fire. *)
let ecc_events t ~frames =
  if frames <= 0 || not (enabled t) then []
  else begin
    let events =
      List.fold_left
        (fun acc (s : Plan.spec) ->
          if not (armed t s.Plan.window) then acc
          else begin
            match s.Plan.site with
            | Plan.Ecc_ce r ->
                let fired = Sim.Rng.bernoulli t.rng r in
                let pfn = Sim.Rng.int t.rng frames in
                if fired then begin
                  t.stats.ecc_ce_errors <- t.stats.ecc_ce_errors + 1;
                  Ce pfn :: acc
                end
                else acc
            | Plan.Ecc_ue r ->
                let fired = Sim.Rng.bernoulli t.rng r in
                let pfn = Sim.Rng.int t.rng frames in
                if fired then begin
                  t.stats.ecc_ue_errors <- t.stats.ecc_ue_errors + 1;
                  Ue pfn :: acc
                end
                else acc
            | _ -> acc
          end)
        [] t.plan
    in
    List.rev events
  end

let alloc_fails t ~node =
  let offline =
    List.exists
      (fun (s : Plan.spec) ->
        match s.Plan.site with
        | Plan.Node_offline n -> n = node && armed t s.Plan.window
        | _ -> false)
      t.plan
    (* A failing node also refuses new allocations (no draw, like
       node-off): evacuation must not land frames back on it. *)
    || node_failing t ~node
  in
  let flaky =
    query t ~f:(function Plan.Alloc_flaky r -> Some r | _ -> None)
  in
  let fired = offline || flaky in
  if fired then t.stats.alloc_failures <- t.stats.alloc_failures + 1;
  fired

let migrate_fails t =
  let fired = query t ~f:(function Plan.Migrate_enomem r -> Some r | _ -> None) in
  if fired then t.stats.migrate_failures <- t.stats.migrate_failures + 1;
  fired

let batch_lost t ~ops =
  let fired = query t ~f:(function Plan.Batch_loss r -> Some r | _ -> None) in
  if fired then begin
    t.stats.batches_lost <- t.stats.batches_lost + 1;
    t.stats.ops_dropped <- t.stats.ops_dropped + ops
  end;
  fired

let op_dropped t =
  let fired = query t ~f:(function Plan.Op_drop r -> Some r | _ -> None) in
  if fired then t.stats.ops_dropped <- t.stats.ops_dropped + 1;
  fired

let hypercall_fails t =
  let fired = query t ~f:(function Plan.Hypercall_flaky r -> Some r | _ -> None) in
  if fired then t.stats.hypercall_errors <- t.stats.hypercall_errors + 1;
  fired

let iommu_faults t =
  let fired = query t ~f:(function Plan.Iommu_storm r -> Some r | _ -> None) in
  if fired then t.stats.iommu_faults <- t.stats.iommu_faults + 1;
  fired

let vcpu_stalls t =
  let fired = query t ~f:(function Plan.Vcpu_stall r -> Some r | _ -> None) in
  if fired then t.stats.vcpu_stalls <- t.stats.vcpu_stalls + 1;
  fired

let install t (system : Xen.System.t) =
  if enabled t then begin
    Memory.Machine.set_alloc_veto system.Xen.System.machine
      (Some (fun ~node ~order:_ -> alloc_fails t ~node));
    let hooks = system.Xen.System.faults in
    hooks.Xen.System.migrate_alloc_fails <- (fun () -> migrate_fails t);
    hooks.Xen.System.hypercall_transient <- (fun () -> hypercall_fails t);
    hooks.Xen.System.iommu_fault <- (fun _ -> iommu_faults t);
    hooks.Xen.System.batch_lost <- (fun ops -> batch_lost t ~ops)
  end

(* Only op drops are a queue site: batch loss is drawn once per batch by
   the queue's flush handler, the page-ops hypercall, through
   [System.faults.batch_lost]. *)
let install_queue t queue =
  if enabled t then Guest.Pv_queue.set_fault_hooks queue ~drop_op:(fun _ -> op_dropped t)
