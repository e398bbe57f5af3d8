(* Chaos runs: one churn-heavy application under composed fault plans,
   reporting the graceful-degradation counters the engine surfaces.
   wrmem is the natural victim — its 15 us page-release period drives
   the pv queue hard, so batch loss and op drops actually bite — and
   first-touch/carrefour exercises every degradation path: resilient
   migrations, the circuit breaker, fallback placement, and the
   reconciliation sweep. *)

let plans =
  [
    ("none", "none");
    ("alloc 15%", "alloc=0.15");
    ("alloc + migrate 50%", "alloc=0.15,migrate=0.5");
    ("alloc + migrate 100%", "alloc=0.15,migrate=1.0");
    ("node 1 off @100", "node-off=1@100-");
    ("batch loss 50%", "batch-loss=0.5,op-drop=0.05");
    ("stalls + hypercalls", "stall=0.02,hypercall=0.2");
  ]

(* Aggressive Carrefour thresholds so the fault plans actually reach the
   migration path: stock thresholds rarely fire for wrmem's near-uniform
   traffic, and a plan that never migrates cannot demonstrate the
   breaker.  The alloc faults in the composed plans misplace pages,
   the eager locality heuristic tries to pull them home, and the
   migrate faults then hit that repair traffic. *)
let eager_carrefour =
  {
    Policies.Carrefour.User_component.default_config with
    Policies.Carrefour.User_component.mc_threshold = 0.30;
    ic_threshold = 0.05;
    dominant_fraction = 0.60;
    min_accesses = 2.0;
  }

let max_epochs = 5_000

let run_one ~seed plan =
  let vm =
    Engine.Config.vm ~threads:16 ~policy:Policies.Spec.first_touch_carrefour
      (Workloads.Catalogue.get "wrmem")
  in
  let faults = Faults.Plan.of_string_exn plan in
  let cfg =
    Engine.Config.make ~seed:(Runs.cell_seed ~base:seed plan) ~max_epochs ~faults
      ~carrefour_config:eager_carrefour ~mode:Engine.Config.Xen_plus [ vm ]
  in
  Runs.run_cell cfg

let run ?(seed = 42) () =
  Array.to_list
    (Engine.Pool.run_all
       (Array.of_list (List.map (fun (_, plan) () -> run_one ~seed plan) plans)))

let print ?seed () =
  let results = run ?seed () in
  Report.Table.print
    ~header:(Report.Table.degradation_header ~first:"fault plan")
    (List.map2
       (fun (label, _) (result : Engine.Result.t) ->
         let vm = Engine.Result.single result in
         let d = vm.Engine.Result.degradation in
         Report.Table.degradation_row ~first:label
           ~injected:result.Engine.Result.faults_injected
           ~retries:d.Engine.Result.migrate_retries ~deferred:d.Engine.Result.deferred
           ~drained:d.Engine.Result.drained ~fallback:d.Engine.Result.fallback_maps
           ~trips:d.Engine.Result.breaker_trips ~level:d.Engine.Result.breaker_level
           ~lost:d.Engine.Result.lost_batches ~reconciled:d.Engine.Result.reconciled
           ~p99:vm.Engine.Result.latency.Engine.Result.p99
           ~completion:vm.Engine.Result.completion)
       plans results);
  print_newline ()
