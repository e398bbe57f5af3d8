type pair_result = {
  app_a : string;
  app_b : string;
  improvement_a : float;  (* T_baseline / T_best for VM A *)
  improvement_b : float;
}

(* The paper's figures list the pairs only in the (rasterised) figure;
   we pick five resp. six representative pairs mixing the imbalance
   classes, including the (cg.C, sp.C) pair the text singles out (cg.C
   improved by 440% when colocated with sp.C). *)
let fig8_pairs =
  [ ("cg.C", "sp.C"); ("ft.C", "lu.C"); ("kmeans", "facesim"); ("wc", "wr");
    ("bodytrack", "streamcluster") ]

let fig9_pairs =
  [ ("cg.C", "sp.C"); ("ft.C", "mg.D"); ("kmeans", "pca"); ("facesim", "streamcluster");
    ("ep.D", "bt.C"); ("wc", "wrmem") ]

let best_policy app = app.Workloads.App.paper.Workloads.App.best_xen

(* Run a pair; [homes] optionally pins each VM to a node set. *)
let run_pair ?(seed = 42) ~threads ~homes (name_a, name_b) ~policies =
  let app_a = Workloads.Catalogue.get name_a and app_b = Workloads.Catalogue.get name_b in
  let policy_a, policy_b = policies (app_a, app_b) in
  let home_a, home_b = homes in
  let vm ?home_nodes policy app = Engine.Config.vm ?home_nodes ~threads ~policy app in
  let vms =
    match (home_a, home_b) with
    | Some ha, Some hb -> [ vm ~home_nodes:ha policy_a app_a; vm ~home_nodes:hb policy_b app_b ]
    | _ -> [ vm policy_a app_a; vm policy_b app_b ]
  in
  let cfg = Engine.Config.make ~seed ~mode:Engine.Config.Xen_plus vms in
  let result = Runs.run_cell cfg in
  (Engine.Result.completion result name_a, Engine.Result.completion result name_b)

let halves = (Some [| 0; 1; 2; 3 |], Some [| 4; 5; 6; 7 |])
let halves_swapped = (Some [| 4; 5; 6; 7 |], Some [| 0; 1; 2; 3 |])

let default_policies (_, _) = (Policies.Spec.round_1g, Policies.Spec.round_1g)
let best_policies (a, b) = (best_policy a, best_policy b)

(* Figure 8: 24 vCPUs per VM on disjoint halves; each configuration
   runs with both node assignments and averages (the paper observed
   placement sensitivity). *)
let fig8 ?seed () =
  Engine.Pool.map_list
    (fun pair ->
      let avg f =
        let a1, b1 = f halves in
        let a2, b2 = f halves_swapped in
        ((a1 +. a2) /. 2.0, (b1 +. b2) /. 2.0)
      in
      let base_a, base_b =
        avg (fun homes -> run_pair ?seed ~threads:24 ~homes pair ~policies:default_policies)
      in
      let best_a, best_b =
        avg (fun homes -> run_pair ?seed ~threads:24 ~homes pair ~policies:best_policies)
      in
      {
        app_a = fst pair;
        app_b = snd pair;
        improvement_a = base_a /. best_a;
        improvement_b = base_b /. best_b;
      })
    fig8_pairs

(* Figure 9: 48 vCPUs per VM, two vCPUs per pCPU. *)
let fig9 ?seed () =
  Engine.Pool.map_list
    (fun pair ->
      let none = (None, None) in
      let base_a, base_b = run_pair ?seed ~threads:48 ~homes:none pair ~policies:default_policies in
      let best_a, best_b = run_pair ?seed ~threads:48 ~homes:none pair ~policies:best_policies in
      {
        app_a = fst pair;
        app_b = snd pair;
        improvement_a = base_a /. best_a;
        improvement_b = base_b /. best_b;
      })
    fig9_pairs

let print_rows title rows =
  print_string
    (Report.Chart.render_groups ~title ~series:[ "vm-1"; "vm-2" ]
       (List.map
          (fun r ->
            (Printf.sprintf "%s + %s" r.app_a r.app_b, [ r.improvement_a; r.improvement_b ]))
          rows))

let print_fig8 ?seed () =
  print_rows
    "Figure 8: improvement of Xen+NUMA over Xen+ with 2 colocated VMs (24 vCPUs each)"
    (fig8 ?seed ())

let print_fig9 ?seed () =
  print_rows
    "Figure 9: improvement of Xen+NUMA over Xen+ with 2 consolidated VMs (48 vCPUs each)"
    (fig9 ?seed ())
