type t = {
  pool : Guest.Pfn_pool.t;
  domain : Xen.Domain.t;
  costs : Xen.Costs.t;
  threads : int;
  period : float option;
      (* the app's page-release period, when its releases cost anything:
         a hypervisor, a policy that invalidates free pages, an app that
         releases pages *)
  queue : Guest.Pv_queue.t option;
  report_free : bool;
}

let create (cfg : Config.t) (spec : Config.vm_spec) ~system ~injector ~obs ~manager
    ~(domain : Xen.Domain.t) ~pool =
  let period =
    match (cfg.Config.mode, spec.Config.app.Workloads.App.page_release_period) with
    | (Config.Xen | Config.Xen_plus), Some p
      when Policies.Spec.invalidates_free_pages spec.Config.policy ->
        Some p
    | _ -> None
  in
  let report_free = Faults.Injector.enabled injector in
  let queue =
    match period with
    | Some _ when report_free ->
        let q =
          Guest.Pv_queue.create ~frames:domain.Xen.Domain.mem_frames
            ~flush:(Policies.Manager.page_ops_hypercall manager) ()
        in
        Faults.Injector.install_queue injector q;
        Guest.Pv_queue.set_obs q ~domain:domain.Xen.Domain.id obs;
        Some q
    | _ -> None
  in
  { pool; domain; costs = system.Xen.System.costs; threads = spec.Config.threads; period; queue;
    report_free }

let concrete t = Option.is_some t.queue

let guest_free t = if t.report_free then Some (Guest.Pfn_pool.free_pfns t.pool) else None

let epoch t =
  match (t.queue, t.period) with
  | Some q, Some period ->
      Obs.Profile.span Obs.Profile.Churn (fun () ->
          let iters = min 64 (max 1 (int_of_float (Config.epoch_len /. period))) in
          let domain = t.domain in
          for i = 0 to iters - 1 do
            let pfn = Guest.Pfn_pool.alloc t.pool in
            if pfn >= 0 then begin
              Guest.Pv_queue.record q (Guest.Pv_queue.Alloc pfn);
              if Xen.P2m.mfn_of domain.Xen.Domain.p2m pfn < 0 then
                ignore
                  (Xen.Domain.handle_fault domain ~costs:t.costs ~pfn
                     ~cpu:domain.Xen.Domain.vcpu_pin.(i mod t.threads));
              Guest.Pfn_pool.release t.pool pfn;
              Guest.Pv_queue.record q (Guest.Pv_queue.Release pfn)
            end
          done)
  | _ -> ()

let overhead t ~active_seconds =
  match t.period with
  | None -> 0.0
  | Some period ->
      let costs = t.costs in
      let per_release =
        (costs.Xen.Costs.hypercall_entry /. 128.0)
        +. costs.Xen.Costs.page_op_send +. costs.Xen.Costs.page_invalidate
        +. costs.Xen.Costs.hypervisor_fault +. costs.Xen.Costs.page_map
      in
      active_seconds /. period *. per_release /. float_of_int t.threads
