(* Carrefour under the hood: drive the system/user component split
   directly, at the mechanism level, and watch the hottest pages being
   migrated off an overloaded node round after round.

   The dom0 user component reads metrics (controller utilisation, link
   loads, hot-page table) through a hypercall into the in-hypervisor
   system component, decides, and applies migrations through the
   internal interface — exactly the Section 4.3 architecture.

   dune exec examples/carrefour_trace.exe *)

let () =
  let topo = Numa.Amd48.topology () in
  (* 64 MiB scaled frames keep the numbers readable. *)
  let system = Xen.System.create ~page_scale:16384 topo in
  let domain =
    Xen.System.create_domain system ~name:"victim" ~kind:Xen.Domain.DomU ~vcpus:48
      ~mem_bytes:(8 * 1024 * 1024 * 1024) ()
  in
  let rng = Sim.Rng.create ~seed:5 in
  (* Boot round-4K, then enable Carrefour through the policy hypercall. *)
  let manager = Policies.Manager.attach system domain ~boot:Policies.Spec.round_4k ~rng in
  (match Policies.Manager.set_policy manager Policies.Spec.round_4k_carrefour with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let counters = Numa.Counters.create topo in
  (* A master-slave pattern gone wrong: 32 hot pages all ended up on
     node 0 (say, after a first-touch initialisation), hammered by
     every node. *)
  let hot_pages = List.init 32 (fun i -> i * 4) in
  List.iter
    (fun pfn ->
      match Policies.Internal.migrate_page system domain ~pfn ~node:0 with
      | Ok _ -> ()
      | Error _ -> failwith "setup migration failed")
    hot_pages;
  Xen.Domain.reset_ledger domain;
  Format.printf "32 hot pages concentrated on node 0; Carrefour engaged@.@.";
  Format.printf "%-6s %-12s %-12s %-14s %s@." "round" "node0 util" "imbalance" "migrations"
    "hot pages on node 0";
  let migrated = ref 0 in
  for round = 1 to 6 do
    (* One measurement epoch: every node hammers the hot pages.  Node
       0's controller saturates while the others idle. *)
    let on_node0 =
      List.filter
        (fun pfn -> Policies.Manager.node_of_pfn manager pfn = Some 0)
        hot_pages
    in
    let per_page = 13.0 *. 1024.0 *. 1024.0 *. 1024.0 /. 64.0 /. 40.0 in
    List.iter
      (fun pfn ->
        let dst = match Policies.Manager.node_of_pfn manager pfn with Some n -> n | None -> 0 in
        for src = 0 to 7 do
          Numa.Counters.record_accesses counters ~src ~dst ~count:(per_page /. 8.0)
            ~bytes_per_access:64.0
        done)
      hot_pages;
    Numa.Counters.end_epoch counters ~duration:1.0;
    (* Hardware sampling feeds the system component; the user component
       reads the metrics and decides. *)
    let node_accesses = Array.make 8 (per_page /. 8.0) in
    let report =
      match
        Policies.Manager.carrefour_epoch_feed manager ~counters ~feed:(fun sys ->
            List.iter
              (fun pfn ->
                Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses
                  ~read_fraction:0.5)
              hot_pages)
      with
      | Some report -> report
      | None -> failwith "carrefour is not active"
    in
    let util = (Numa.Counters.last_controller_utilisation counters).(0) in
    let moved =
      report.Policies.Carrefour.interleave_migrations
      + report.Policies.Carrefour.locality_migrations
    in
    migrated := !migrated + moved;
    Format.printf "%-6d %-12s %-12s %-14d %d@." round
      (Printf.sprintf "%.0f%%" (100.0 *. util))
      (Printf.sprintf "%.0f%%" (100.0 *. Numa.Counters.imbalance counters))
      moved (List.length on_node0)
  done;
  Format.printf "@.total pages migrated: %d (%.1f ms of copy time charged to the domain)@."
    !migrated
    (1000.0 *. Xen.Domain.spent domain Xen.Domain.Migrate)
