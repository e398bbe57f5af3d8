type row = {
  label : string;
  completion : float;
  local_fraction : float;
  page_migrations : int;
}

(* cg.C is the thread-local victim (first-touch is ideal for it while
   nothing moves); ep.D is the noisy neighbour whose heavily contended
   threads retire at different times, freeing pCPUs one by one. *)
let configs ?(seed = 42) () =
  let app = Workloads.Catalogue.get in
  let config ~pinned ~policy label =
    let victim = Engine.Config.vm ~threads:48 ~pinned ~policy (app "cg.C") in
    let neighbour = Engine.Config.vm ~threads:24 ~policy:Policies.Spec.round_4k (app "ep.D") in
    (label, Engine.Config.make ~seed ~mode:Engine.Config.Xen_plus [ victim; neighbour ])
  in
  [
    config ~pinned:true ~policy:Policies.Spec.first_touch "first-touch, vCPUs pinned";
    config ~pinned:false ~policy:Policies.Spec.first_touch "first-touch, vCPUs migrate";
    config ~pinned:false ~policy:Policies.Spec.first_touch_carrefour
      "ft/carrefour, vCPUs migrate";
  ]

let run_config (label, cfg) =
  let result = Runs.run_cell cfg in
  let vm =
    match List.find_opt (fun vm -> vm.Engine.Result.app_name = "cg.C") result.Engine.Result.vms with
    | Some vm -> vm
    | None -> assert false
  in
  {
    label;
    completion = vm.Engine.Result.completion;
    local_fraction = vm.Engine.Result.local_fraction;
    page_migrations = vm.Engine.Result.migrations;
  }

let run ?seed () = Engine.Pool.map_list run_config (configs ?seed ())

let print ?seed () =
  print_endline
    "Why policies belong in the hypervisor (Section 1): cg.C next to a retiring neighbour";
  Report.Table.print
    ~header:[ "victim configuration"; "completion"; "local accesses"; "pages chased" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.Table.fmt_secs r.completion;
           Report.Table.fmt_pct r.local_fraction;
           string_of_int r.page_migrations;
         ])
       (run ?seed ()));
  print_newline ()
