(* Additional coverage: machine descriptions, result plumbing, spec
   properties, queue stress, counters under multi-epoch histories,
   cross-machine engine runs. *)

let app = Workloads.Catalogue.get

(* --------------------------- machine_desc --------------------------- *)

let test_machine_desc_find () =
  (match Numa.Machine_desc.find "AMD48" with
  | Some m -> Alcotest.(check string) "amd48" "amd48" m.Numa.Machine_desc.name
  | None -> Alcotest.fail "amd48 missing");
  Alcotest.(check bool) "unknown" true (Numa.Machine_desc.find "cray" = None);
  Alcotest.(check int) "two machines" 2 (List.length Numa.Machine_desc.all)

let test_machine_desc_intel_shape () =
  let m = Numa.Machine_desc.intel32 in
  let topo = m.Numa.Machine_desc.topology () in
  Alcotest.(check int) "4 nodes" 4 (Numa.Topology.node_count topo);
  Alcotest.(check int) "32 cpus" 32 (Numa.Topology.cpu_count topo);
  Alcotest.(check int) "fully connected: diameter 1" 1 (Numa.Topology.diameter topo)

let test_engine_runs_on_intel32 () =
  let vm = Engine.Config.vm ~threads:32 ~policy:Policies.Spec.first_touch (app "cg.C") in
  let cfg =
    Engine.Config.make ~seed:2 ~machine:Numa.Machine_desc.intel32 ~mode:Engine.Config.Xen_plus
      [ vm ]
  in
  let r = Engine.Runner.run cfg in
  let v = Engine.Result.single r in
  Alcotest.(check bool) "completes" true (v.Engine.Result.completion > 0.0);
  Alcotest.(check bool) "locality preserved on any host" true
    (v.Engine.Result.local_fraction > 0.9)

(* ------------------------------ result ------------------------------ *)

let test_result_single_rejects_multi () =
  let vms =
    [
      Engine.Config.vm ~threads:24 ~policy:Policies.Spec.round_4k (app "swaptions");
      Engine.Config.vm ~threads:24 ~policy:Policies.Spec.round_4k (app "ep.D");
    ]
  in
  let r = Engine.Runner.run (Engine.Config.make ~seed:3 ~mode:Engine.Config.Xen_plus vms) in
  Alcotest.check_raises "single on multi" (Invalid_argument "Result.single: run had several VMs")
    (fun () -> ignore (Engine.Result.single r));
  Alcotest.(check bool) "completion lookup raises on unknown" true
    (try
       ignore (Engine.Result.completion r "quake3");
       false
     with Not_found -> true)

let test_result_pp_renders () =
  let vm = Engine.Config.vm ~threads:8 ~policy:Policies.Spec.round_4k (app "swaptions") in
  let r = Engine.Runner.run (Engine.Config.make ~seed:4 ~mode:Engine.Config.Linux [ vm ]) in
  let s = Format.asprintf "%a" Engine.Result.pp r in
  Alcotest.(check bool) "mentions the app" true
    (String.length s > 0
    &&
    let re_found = ref false in
    String.iteri
      (fun i _ ->
        if i + 9 <= String.length s && String.sub s i 9 = "swaptions" then re_found := true)
      s;
    !re_found)

(* ----------------------------- observer ----------------------------- *)

let test_observer_called_and_monotone () =
  let snapshots = ref [] in
  let vm = Engine.Config.vm ~threads:8 ~policy:Policies.Spec.round_4k (app "swaptions") in
  let cfg =
    Engine.Config.make ~seed:5 ~mode:Engine.Config.Linux
      ~observer:(fun s -> snapshots := s :: !snapshots)
      [ vm ]
  in
  let r = Engine.Runner.run cfg in
  let snaps = List.rev !snapshots in
  Alcotest.(check int) "one snapshot per epoch" r.Engine.Result.epochs (List.length snaps);
  let progresses = List.map (fun s -> List.assoc "swaptions" s.Engine.Config.progress) snaps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "progress monotone" true (monotone progresses);
  Alcotest.(check (float 1e-6)) "ends at 1" 1.0 (List.nth progresses (List.length progresses - 1))

(* ------------------------------- spec -------------------------------- *)

let prop_spec_parse_total =
  QCheck.Test.make ~name:"spec parser never raises" ~count:300 QCheck.printable_string
    (fun s ->
      match Policies.Spec.of_string s with Ok _ -> true | Error _ -> true)

let prop_spec_name_unique =
  QCheck.Test.make ~name:"spec names are distinct" ~count:1 QCheck.unit (fun () ->
      let names = List.map Policies.Spec.name Policies.Spec.all in
      List.length (List.sort_uniq compare names) = List.length names)

(* ------------------------------ pv_queue ----------------------------- *)

let test_queue_interleaved_partitions_stress () =
  let per_partition = Array.make 8 0 in
  let q =
    Guest.Pv_queue.create ~partitions:8 ~capacity:16 ~frames:4096
      ~flush:(fun ops ->
        (* Every op in one flush belongs to the same partition. *)
        let parts =
          List.sort_uniq compare
            (List.map (fun op -> Guest.Pv_queue.op_pfn op land 7) (Array.to_list ops))
        in
        (match parts with
        | [ p ] -> per_partition.(p) <- per_partition.(p) + Array.length ops
        | _ -> Alcotest.fail "flush mixes partitions");
        0.0)
      ()
  in
  let rng = Sim.Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    Guest.Pv_queue.record q (Guest.Pv_queue.Release (Sim.Rng.int rng 4096))
  done;
  Guest.Pv_queue.flush_all q;
  Alcotest.(check int) "all ops accounted" 10_000
    (Array.fold_left ( + ) 0 per_partition
    + (Guest.Pv_queue.stats q).Guest.Pv_queue.dedup_hits);
  Array.iteri
    (fun i n -> if n = 0 then Alcotest.failf "partition %d never used" i)
    per_partition

(* ------------------------------ counters ----------------------------- *)

let test_counters_multi_epoch_interconnect_average () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  (* Epoch 1: link 0<->1 (6 GiB/s) at 100%; epoch 2: idle. *)
  Numa.Counters.record_accesses c ~src:0 ~dst:1 ~count:(6.0 *. gib /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Alcotest.(check (float 0.02)) "average of 100% and 0%" 0.5 (Numa.Counters.interconnect_load c)

(* ----------------------------- engine misc ---------------------------- *)

let test_engine_huge_and_unpinned_compose () =
  let vm =
    Engine.Config.vm ~threads:48 ~huge_pages:true ~pinned:false
      ~policy:Policies.Spec.first_touch_carrefour (app "cg.C")
  in
  let r = Engine.Runner.run (Engine.Config.make ~seed:7 ~mode:Engine.Config.Xen_plus [ vm ]) in
  Alcotest.(check bool) "completes" true ((Engine.Result.single r).Engine.Result.completion > 0.0)

let test_engine_seed_sensitivity_small () =
  (* Different seeds shift stochastic components (bursts, carrefour
     picks) but not the macro outcome. *)
  let run seed =
    let vm = Engine.Config.vm ~policy:Policies.Spec.round_4k_carrefour (app "fluidanimate") in
    (Engine.Result.single (Engine.Runner.run (Engine.Config.make ~seed ~mode:Engine.Config.Linux [ vm ])))
      .Engine.Result.completion
  in
  let a = run 1 and b = run 99 in
  Alcotest.(check bool) "within 10%" true (Float.abs (a -. b) /. a < 0.10)

let test_engine_dom0_costs_pv_io_cpu () =
  (* dc.B over the pv path keeps dom0 busy on node 0; the same app
     with passthrough does not.  Both Xen runs must be slower than
     having no dom0 contention at all is worth checking indirectly:
     pv completion > passthrough completion. *)
  let run mode =
    let vm = Engine.Config.vm ~policy:Policies.Spec.round_1g (app "dc.B") in
    (Engine.Result.single (Engine.Runner.run (Engine.Config.make ~seed:8 ~mode [ vm ])))
      .Engine.Result.completion
  in
  Alcotest.(check bool) "pv dearer than passthrough" true
    (run Engine.Config.Xen > run Engine.Config.Xen_plus)

let suite =
  [
    ( "numa.machine_desc",
      [
        Alcotest.test_case "find" `Quick test_machine_desc_find;
        Alcotest.test_case "intel32 shape" `Quick test_machine_desc_intel_shape;
        Alcotest.test_case "engine on intel32" `Quick test_engine_runs_on_intel32;
      ] );
    ( "engine.result",
      [
        Alcotest.test_case "single rejects multi" `Quick test_result_single_rejects_multi;
        Alcotest.test_case "pp renders" `Quick test_result_pp_renders;
      ] );
    ( "engine.observer",
      [ Alcotest.test_case "called with monotone progress" `Quick test_observer_called_and_monotone ] );
    ( "policies.spec.props",
      [
        QCheck_alcotest.to_alcotest prop_spec_parse_total;
        QCheck_alcotest.to_alcotest prop_spec_name_unique;
      ] );
    ( "guest.pv_queue.stress",
      [ Alcotest.test_case "partitions never mix" `Quick test_queue_interleaved_partitions_stress ] );
    ( "numa.counters.epochs",
      [ Alcotest.test_case "interconnect average" `Quick test_counters_multi_epoch_interconnect_average ] );
    ( "engine.misc",
      [
        Alcotest.test_case "huge+unpinned compose" `Quick test_engine_huge_and_unpinned_compose;
        Alcotest.test_case "seed sensitivity" `Slow test_engine_seed_sensitivity_small;
        Alcotest.test_case "dom0 pv io cpu" `Slow test_engine_dom0_costs_pv_io_cpu;
      ] );
  ]
