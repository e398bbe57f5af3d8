(* Memory-RAS runs: hardware fault scenarios (ECC error storms and a
   whole-node failure) over a small workload x policy grid, reporting
   the RAS degradation counters the engine surfaces.  The node-fail
   scenario is the headline: the failing node's bandwidth collapses
   over a 100-epoch drain window, the node then goes offline, and every
   run must still complete with the node fully evacuated. *)

let scenarios =
  [
    ("none", "none");
    ("ce-storm", "ecc-ce=0.9");
    ("ue-sparse", "ecc-ue=0.05");
    ("node-fail", "node_fail=1.0@50-150");
  ]

let cells =
  [
    ("swaptions", "ft", Policies.Spec.first_touch);
    ("swaptions", "4k/cfr", Policies.Spec.round_4k_carrefour);
    ("wrmem", "ft", Policies.Spec.first_touch);
    ("wrmem", "4k/cfr", Policies.Spec.round_4k_carrefour);
  ]

let max_epochs = 5_000

let run_one ~seed ~app_name ~policy plan =
  let vm = Engine.Config.vm ~threads:16 ~policy (Workloads.Catalogue.get app_name) in
  let faults = Faults.Plan.of_string_exn plan in
  (* The chaos grid's eager thresholds, for the same reason: the
     carrefour cells must actually reach the migration path so the
     evacuation drain competes with policy traffic. *)
  let label = app_name ^ "|" ^ plan in
  let cfg =
    Engine.Config.make ~seed:(Runs.cell_seed ~base:seed label) ~max_epochs ~faults
      ~carrefour_config:Chaos.eager_carrefour ~mode:Engine.Config.Xen_plus [ vm ]
  in
  Runs.run_cell cfg

let grid = List.concat_map (fun cell -> List.map (fun sc -> (cell, sc)) scenarios) cells

let run ?(seed = 42) () =
  Array.to_list
    (Engine.Pool.run_all
       (Array.of_list
          (List.map
             (fun ((app_name, _, policy), (_, plan)) () -> run_one ~seed ~app_name ~policy plan)
             grid)))

let print ?seed () =
  let results = run ?seed () in
  let tagged = List.combine grid results in
  let baseline app_name policy_label =
    List.find_map
      (fun (((a, p, _), (sc, _)), (r : Engine.Result.t)) ->
        if a = app_name && p = policy_label && sc = "none" then
          Some (Engine.Result.single r).Engine.Result.completion
        else None)
      tagged
  in
  Report.Table.print
    ~header:(Report.Table.ras_header ~first:"cell")
    (List.map
       (fun (((app_name, policy_label, _), (sc, _)), (result : Engine.Result.t)) ->
         let vm = Engine.Result.single result in
         let d = vm.Engine.Result.degradation in
         let base =
           match baseline app_name policy_label with Some b -> b | None -> assert false
         in
         Report.Table.ras_row
           ~first:(app_name ^ "/" ^ policy_label)
           ~scenario:sc ~injected:result.Engine.Result.faults_injected
           ~ce:d.Engine.Result.ecc_ce ~ue:d.Engine.Result.ecc_ue
           ~offlined:d.Engine.Result.offlined ~evacuated:d.Engine.Result.evacuated
           ~evac_epochs:d.Engine.Result.evac_epochs
           ~p99:vm.Engine.Result.latency.Engine.Result.p99
           ~completion:vm.Engine.Result.completion
           ~slowdown:(vm.Engine.Result.completion /. base))
       tagged);
  print_newline ()
