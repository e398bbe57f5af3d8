let carrefour_variant ?(replication = false) ~interleave ~locality () =
  let base = Policies.Carrefour.User_component.default_config in
  {
    base with
    Policies.Carrefour.User_component.mc_threshold = (if interleave then 0.50 else 2.0);
    ic_threshold = (if locality || replication then 0.12 else 2.0);
    dominant_fraction = 0.75;
    min_accesses = 4.0;
    migration_budget = 256;
    enable_replication = replication;
    replication_read_threshold = 0.85;
  }

let run_variant ?(seed = 42) ~app_name ~policy ~interleave ~locality () =
  let vm = Engine.Config.vm ~policy (Workloads.Catalogue.get app_name) in
  let cfg =
    Engine.Config.make ~seed ~mode:Engine.Config.Linux
      ~carrefour_config:(carrefour_variant ~interleave ~locality ())
      [ vm ]
  in
  let vm_result = Engine.Result.single (Runs.run_cell cfg) in
  (vm_result.Engine.Result.completion, vm_result.Engine.Result.migrations)

let print_carrefour_heuristics ?seed () =
  let variants =
    [
      ("both heuristics", true, true);
      ("interleave only", true, false);
      ("migration only", false, true);
      ("neither (static)", false, false);
    ]
  in
  let configs =
    [
      ("kmeans", Policies.Spec.first_touch_carrefour, "first-touch (controller overload)");
      ("cg.C", Policies.Spec.round_4k_carrefour, "round-4k (lost locality)");
    ]
  in
  (* Flatten the (config x variant) grid into independent pool tasks;
     rows come back in grid order. *)
  let cells =
    List.concat_map (fun config -> List.map (fun v -> (config, v)) variants) configs
  in
  let rows =
    Engine.Pool.map_list
      (fun ((app_name, policy, _), (name, interleave, locality)) ->
        let completion, migrations =
          run_variant ?seed ~app_name ~policy ~interleave ~locality ()
        in
        [ name; Report.Table.fmt_secs completion; string_of_int migrations ])
      cells
  in
  List.iteri
    (fun i (app_name, _, label) ->
      Printf.printf "Carrefour heuristic ablation: %s under %s\n" app_name label;
      let skip = i * List.length variants in
      Report.Table.print
        ~header:[ "variant"; "completion"; "migrations" ]
        (List.filteri (fun j _ -> j >= skip && j < skip + List.length variants) rows);
      print_newline ())
    configs

let print_replay_direction () =
  (* A queue in which half the released pages are reallocated before
     the flush. *)
  let ops =
    Array.concat
      [
        Array.init 32 (fun i -> Guest.Pv_queue.Release i);
        Array.init 16 (fun i -> Guest.Pv_queue.Alloc i);  (* pages 0..15 reallocated *)
      ]
  in
  let live pfn = pfn < 16 in
  (* (live pages wrongly invalidated, pages invalidated) over the ops a
     replay applies. *)
  let tally (wrong, invalidated) = function
    | Guest.Pv_queue.Release pfn -> ((if live pfn then wrong + 1 else wrong), invalidated + 1)
    | Guest.Pv_queue.Alloc _ -> (wrong, invalidated)
  in
  (* Oldest first applies every op in order, so a Release that precedes
     a reallocation wrongly invalidates a live page. *)
  let naive = Array.fold_left tally (0, 0) ops in
  (* The paper's rule, as the guest queue applies it: push the same ops
     through a queue and tally what its flush delivers. *)
  let recent = ref (0, 0) in
  let queue =
    Guest.Pv_queue.create ~frames:32
      ~flush:(fun delivered ->
        recent := Array.fold_left tally !recent delivered;
        0.0)
      ()
  in
  Array.iter (Guest.Pv_queue.record queue) ops;
  Guest.Pv_queue.flush_all queue;
  let row label (wrong, invalidated) = [ label; string_of_int wrong; string_of_int invalidated ] in
  print_endline "Queue replay direction (Section 4.2.4)";
  Report.Table.print
    ~header:[ "replay order"; "live pages wrongly invalidated"; "free pages invalidated" ]
    [ row "oldest first (naive)" naive; row "most recent first (paper)" !recent ];
  print_newline ()

let print_mcs ?(seed = 42) () =
  print_endline "MCS spin locks vs futex sleeps under Xen+ (Section 5.3.2)";
  Report.Table.print
    ~header:[ "app"; "futex"; "mcs"; "improvement" ]
    (Engine.Pool.map_list
       (fun name ->
         let app = Workloads.Catalogue.get name in
         let futex =
           Runs.completion ~seed (Runs.xen_plus ~mcs:false app Policies.Spec.round_4k)
         in
         let mcs = Runs.completion ~seed (Runs.xen_plus ~mcs:true app Policies.Spec.round_4k) in
         [
           name;
           Report.Table.fmt_secs futex;
           Report.Table.fmt_secs mcs;
           Report.Table.fmt_pct ((futex /. mcs) -. 1.0);
         ])
       Runs.mcs_apps);
  print_newline ()

(* The replication heuristic the paper discarded.  Under the strict
   read-only threshold (a single write collapses the replicas, so only
   pages with a ~100% read fraction are worth replicating) nothing in
   these read-mostly workloads qualifies and the effect is marginal —
   the paper's observation.  A permissive threshold would help the
   graph kernels in this model, but only because the model does not
   charge the coherence machinery a real implementation would need. *)
let print_replication ?(seed = 42) () =
  print_endline "Replication heuristic (discarded in the paper, Section 3.4)";
  (* Replication on at [threshold]; off without one. *)
  let run ?threshold app_name =
    let replication = Option.is_some threshold in
    let cfg = carrefour_variant ~replication ~interleave:true ~locality:true () in
    let cfg =
      match threshold with
      | Some t -> { cfg with Policies.Carrefour.User_component.replication_read_threshold = t }
      | None -> cfg
    in
    let vm =
      Engine.Config.vm ~policy:Policies.Spec.round_4k_carrefour (Workloads.Catalogue.get app_name)
    in
    let result =
      Runs.run_cell (Engine.Config.make ~seed ~mode:Engine.Config.Linux ~carrefour_config:cfg [ vm ])
    in
    (Engine.Result.single result).Engine.Result.completion
  in
  Report.Table.print
    ~header:[ "app"; "no replication"; "strict (read-only)"; "permissive (>=85% reads)" ]
    (Engine.Pool.map_list
       (fun app_name ->
         let base = run app_name in
         let strict = run ~threshold:0.999 app_name in
         let permissive = run ~threshold:0.85 app_name in
         let delta t = Printf.sprintf "%s (%+.1f%%)" (Report.Table.fmt_secs t) (100.0 *. ((base /. t) -. 1.0)) in
         [ app_name; Report.Table.fmt_secs base; delta strict; delta permissive ])
       [ "pagerank"; "bfs"; "memcached" ]);
  print_endline
    "(strict threshold: no read-mostly page qualifies -> marginal effect, as in the paper)";
  print_newline ()

(* Large pages (implemented: the huge_pages spec flag; the walk cost
   behind it is now the radix model of Guest.Tlb.walk_cycles_radix
   when --pt-walk is on).  The nested page walk makes TLB misses ~3x
   dearer in a VM — and 2 MiB pages shorten every radix walk by one
   level on top of the reach win — so they pay off most there.  The
   Mitosis grid (Experiments.Mitosis) ablates the walk pricing
   itself. *)
let print_huge_pages ?(seed = 42) () =
  print_endline "Large pages (the paper's first future-work item)";
  Report.Table.print
    ~header:[ "app"; "mode"; "4 KiB pages"; "2 MiB pages"; "improvement" ]
    (List.concat
       (Engine.Pool.map_list
          (fun app_name ->
         let app = Workloads.Catalogue.get app_name in
         let policy = app.Workloads.App.paper.Workloads.App.best_xen in
         let policy =
           if Policies.Spec.runtime_selectable policy then policy else Policies.Spec.round_4k
         in
         List.map
           (fun (label, mode) ->
             let run huge_pages =
               let vm = Engine.Config.vm ~huge_pages ~policy app in
               (Engine.Result.single (Runs.run_cell (Engine.Config.make ~seed ~mode [ vm ])))
                 .Engine.Result.completion
             in
             let small = run false and huge = run true in
             [
               app_name;
               label;
               Report.Table.fmt_secs small;
               Report.Table.fmt_secs huge;
               Printf.sprintf "%+.1f%%" (100.0 *. ((small /. huge) -. 1.0));
             ])
           [ ("linux", Engine.Config.Linux); ("xen+", Engine.Config.Xen_plus) ])
          [ "mg.D"; "dc.B"; "kmeans" ]));
  print_newline ()

let print_round1g_fragmentation () =
  let system = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
  let rng = Sim.Rng.create ~seed:3 in
  print_endline "round-1G boot allocation granularity (Section 3.3)";
  Report.Table.print
    ~header:[ "domain size"; "1 GiB regions"; "2 MiB regions"; "4 KiB pages" ]
    (List.map
       (fun gib ->
         let domain =
           Xen.System.create_domain system
             ~name:(Printf.sprintf "frag-%dg" gib)
             ~kind:Xen.Domain.DomU ~vcpus:1
             ~mem_bytes:(gib * 1024 * 1024 * 1024)
             ()
         in
         let manager =
           Policies.Manager.attach system domain ~boot:Policies.Spec.round_1g ~rng
         in
         let stats = Policies.Manager.stats manager in
         let row =
           [
             Printf.sprintf "%d GiB" gib;
             string_of_int stats.Policies.Manager.populated_1g;
             string_of_int stats.Policies.Manager.populated_2m;
             string_of_int stats.Policies.Manager.populated_4k;
           ]
         in
         Xen.System.destroy_domain system domain;
         row)
       [ 1; 4; 16 ])
