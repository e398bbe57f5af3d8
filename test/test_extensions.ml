(* Tests for the extension substrates: TLB/huge pages, the credit
   scheduler, the policy advisor, and their engine integration. *)

let app = Workloads.Catalogue.get

(* -------------------------------- tlb ------------------------------ *)

let tlb = Guest.Tlb.opteron

let test_tlb_coverage () =
  Alcotest.(check int) "4k coverage" (1024 * 4096) (Guest.Tlb.coverage_bytes tlb Guest.Tlb.Small_4k);
  Alcotest.(check int) "2m coverage" (48 * 2 * 1024 * 1024)
    (Guest.Tlb.coverage_bytes tlb Guest.Tlb.Huge_2m)

let test_tlb_small_footprint_never_misses () =
  Alcotest.(check (float 1e-12)) "fits in reach" 0.0
    (Guest.Tlb.miss_ratio tlb Guest.Tlb.Small_4k ~footprint_bytes:(1024 * 1024)
       ~hot_access_share:0.5)

let test_tlb_huge_pages_reduce_misses () =
  let footprint_bytes = 4 * 1024 * 1024 * 1024 in
  let small =
    Guest.Tlb.miss_ratio tlb Guest.Tlb.Small_4k ~footprint_bytes ~hot_access_share:0.5
  in
  let huge = Guest.Tlb.miss_ratio tlb Guest.Tlb.Huge_2m ~footprint_bytes ~hot_access_share:0.5 in
  Alcotest.(check bool) "misses exist at 4k" true (small > 0.0);
  Alcotest.(check bool) "2M at least 100x fewer" true (huge < small /. 100.0)

let test_tlb_nested_walk_costlier () =
  Alcotest.(check bool) "virtualized walk ~3x" true
    (Guest.Tlb.walk_cycles tlb ~virtualized:true >= 2.5 *. Guest.Tlb.walk_cycles tlb ~virtualized:false)

let test_tlb_hot_share_reduces_misses () =
  let footprint_bytes = 1024 * 1024 * 1024 in
  let cold = Guest.Tlb.miss_ratio tlb Guest.Tlb.Small_4k ~footprint_bytes ~hot_access_share:0.1 in
  let hot = Guest.Tlb.miss_ratio tlb Guest.Tlb.Small_4k ~footprint_bytes ~hot_access_share:0.9 in
  Alcotest.(check bool) "skew helps" true (hot < cold)

let test_engine_huge_pages_help_virtualized_big_app () =
  let run huge_pages =
    let vm = Engine.Config.vm ~huge_pages ~policy:Policies.Spec.round_4k (app "mg.D") in
    (Engine.Result.single
       (Engine.Runner.run (Engine.Config.make ~seed:5 ~mode:Engine.Config.Xen_plus [ vm ])))
      .Engine.Result.completion
  in
  let small = run false and huge = run true in
  Alcotest.(check bool) "2M pages at least 5% faster in a VM" true (small > 1.05 *. huge)

(* --------------------------- tlb radix walk ------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

(* Exact pin: at a ratio of 1.0 the radix sum is the flat walk
   constant bit for bit (per-level cost = flat / 4, summed over 4
   levels), so the --pt-walk path on a topology where every walk is
   local reproduces the flat model to the last bit. *)
let test_walk_radix_uniform_equals_flat () =
  List.iter
    (fun virtualized ->
      Alcotest.(check (float 0.0)) "4-level radix = flat"
        (Guest.Tlb.walk_cycles tlb ~virtualized)
        (Guest.Tlb.walk_cycles_radix tlb ~virtualized ~levels:Guest.Tlb.walk_levels ~ratio:1.0))
    [ false; true ];
  let footprint_bytes = 4 * 1024 * 1024 * 1024 and hot_access_share = 0.5 in
  Alcotest.(check (float 0.0)) "blended 4 KiB access cycles = flat"
    (Guest.Tlb.cycles_per_access tlb Guest.Tlb.Small_4k ~virtualized:true ~footprint_bytes
       ~hot_access_share)
    (Guest.Tlb.cycles_per_access_radix tlb Guest.Tlb.Small_4k ~virtualized:true
       ~footprint_bytes ~hot_access_share ~ratio:1.0);
  Alcotest.(check (float 0.0)) "mixed with f=0 = flat small"
    (Guest.Tlb.cycles_per_access tlb Guest.Tlb.Small_4k ~virtualized:true ~footprint_bytes
       ~hot_access_share)
    (Guest.Tlb.cycles_per_access_mixed_radix tlb ~huge_fraction:0.0 ~virtualized:true
       ~footprint_bytes ~hot_access_share ~ratio:1.0);
  (* The engine prices every flat walk through the blend: at f = 0 and
     f = 1 it is the flat 4 KiB and 2 MiB cost bit for bit. *)
  List.iter
    (fun virtualized ->
      List.iter
        (fun (huge_fraction, page_size) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "flat mixed with f=%g = flat (virtualized %b)" huge_fraction
               virtualized)
            (Guest.Tlb.cycles_per_access tlb page_size ~virtualized ~footprint_bytes
               ~hot_access_share)
            (Guest.Tlb.cycles_per_access_mixed tlb ~huge_fraction ~virtualized ~footprint_bytes
               ~hot_access_share))
        [ (0.0, Guest.Tlb.Small_4k); (1.0, Guest.Tlb.Huge_2m) ])
    [ false; true ]

let ratio_of percent = float_of_int percent /. 100.0

(* Walk cost grows with every level added (each level's cost is
   strictly positive whatever the tables' placement). *)
let prop_walk_monotone_in_depth =
  QCheck.Test.make ~name:"radix walk monotone in depth" ~count:200
    QCheck.(pair bool (int_range 100 400))
    (fun (virtualized, percent) ->
      let ratio = ratio_of percent in
      let ok = ref true in
      for levels = 1 to Guest.Tlb.walk_levels do
        if
          Guest.Tlb.walk_cycles_radix tlb ~virtualized ~levels ~ratio
          <= Guest.Tlb.walk_cycles_radix tlb ~virtualized ~levels:(levels - 1) ~ratio
        then ok := false
      done;
      !ok)

(* Moving the tables further away never cheapens the walk: cost is
   monotone in the latency ratio (remote being a ratio > 1). *)
let prop_walk_monotone_in_ratio =
  QCheck.Test.make ~name:"radix walk monotone in ratio" ~count:200
    QCheck.(triple bool (int_range 100 400) (int_range 0 300))
    (fun (virtualized, percent, bump) ->
      let near = ratio_of percent in
      let far = near +. ratio_of bump in
      Guest.Tlb.walk_cycles_radix tlb ~virtualized ~levels:Guest.Tlb.walk_levels ~ratio:far
      >= Guest.Tlb.walk_cycles_radix tlb ~virtualized ~levels:Guest.Tlb.walk_levels ~ratio:near)

(* For one placement the 2 MiB path is never dearer than the 4 KiB
   path: it misses less (bigger reach) and each miss walks one level
   fewer (a prefix of the same per-level sum). *)
let prop_walk_superpage_path_cheaper =
  QCheck.Test.make ~name:"superpage path <= 4 KiB path" ~count:200
    QCheck.(triple bool (int_range 1 64) (int_range 100 400))
    (fun (virtualized, quarter_gib, percent) ->
      let footprint_bytes = quarter_gib * 256 * 1024 * 1024 in
      let ratio = ratio_of percent in
      Guest.Tlb.cycles_per_access_radix tlb Guest.Tlb.Huge_2m ~virtualized ~footprint_bytes
        ~hot_access_share:0.5 ~ratio
      <= Guest.Tlb.cycles_per_access_radix tlb Guest.Tlb.Small_4k ~virtualized
           ~footprint_bytes ~hot_access_share:0.5 ~ratio)

(* ----------------------------- engine pt --------------------------- *)

(* Differential pin: confined to one node every walk level is local,
   so the level ratios are exactly 1.0 and the radix repricing must
   reproduce the flat-model run bit for bit — the whole result record,
   not just the walk term. *)
let test_engine_pt_walk_one_node_identical () =
  let cell pt_walk =
    let vm =
      Engine.Config.vm ~threads:6 ~home_nodes:[| 0 |] ~pt_walk
        ~policy:Policies.Spec.round_4k (app "swaptions")
    in
    Engine.Result.single
      (Engine.Runner.run
         (Engine.Config.make ~seed:7 ~mode:Engine.Config.Xen_plus [ vm ]))
  in
  let off = cell false and on = cell true in
  Alcotest.(check bool) "walk term within 1e-9" true
    (Float.abs (off.Engine.Result.walk_cycles_per_instr -. on.Engine.Result.walk_cycles_per_instr)
    < 1e-9);
  Alcotest.(check bool) "whole result identical" true (off = on)

(* Off means off: a spec with both toggles false is structurally the
   default spec, so the walk-model-off engine is the pre-walk-model
   engine for every baseline cell by construction. *)
let test_engine_pt_flags_off_is_default () =
  let explicit =
    Engine.Config.vm ~pt_walk:false ~replicate_pt:false ~policy:Policies.Spec.round_4k
      (app "swaptions")
  in
  let default = Engine.Config.vm ~policy:Policies.Spec.round_4k (app "swaptions") in
  Alcotest.(check bool) "specs equal" true (explicit = default)

(* The acceptance cell: first-touch + Carrefour spreads 48 threads
   over all eight nodes while the page tables sit on the first home
   node, so radix pricing inflates the walk term; replication brings
   every level home and must win it back — paying visible propagation
   costs for it. *)
let test_engine_replicate_pt_localises_walks () =
  let cell replicate_pt =
    let vm =
      Engine.Config.vm ~pt_walk:true ~replicate_pt
        ~policy:Policies.Spec.first_touch_carrefour (app "kmeans")
    in
    Engine.Result.single
      (Engine.Runner.run
         (Engine.Config.make ~seed:11 ~mode:Engine.Config.Xen_plus [ vm ]))
  in
  let primary_only = cell false and replicated = cell true in
  Alcotest.(check bool) "remote levels inflate the walk term" true
    (primary_only.Engine.Result.walk_cycles_per_instr
    > 1.000001 *. replicated.Engine.Result.walk_cycles_per_instr);
  Alcotest.(check bool) "no mirrors, no propagation" true
    (primary_only.Engine.Result.pt_replica_updates = 0
    && primary_only.Engine.Result.pt_replica_time = 0.0);
  Alcotest.(check bool) "mirrors pay propagation" true
    (replicated.Engine.Result.pt_replica_updates > 0
    && replicated.Engine.Result.pt_replica_time > 0.0)

(* Linux mode has no P2M, hence no priced page tables: both toggles
   must be inert there. *)
let test_engine_pt_ignored_under_linux () =
  let cell pt_walk replicate_pt =
    let vm =
      Engine.Config.vm ~threads:8 ~pt_walk ~replicate_pt ~policy:Policies.Spec.round_4k
        (app "swaptions")
    in
    Engine.Result.single
      (Engine.Runner.run (Engine.Config.make ~seed:3 ~mode:Engine.Config.Linux [ vm ]))
  in
  Alcotest.(check bool) "identical result" true (cell false false = cell true true)

(* ------------------------------- sched ------------------------------ *)

let sched_system () = Xen.System.create ~page_scale:262144 (Numa.Amd48.topology ())

let test_sched_occupancy () =
  let s = sched_system () in
  let d =
    Xen.System.create_domain s ~name:"a" ~kind:Xen.Domain.DomU ~vcpus:4 ~mem_bytes:(1 lsl 30) ()
  in
  let occ = Xen.Sched.occupancy s.Xen.System.topo ~domains:[ d ] ~active:(fun _ _ -> true) in
  Alcotest.(check int) "4 active" 4 (Array.fold_left ( + ) 0 occ);
  let occ_none = Xen.Sched.occupancy s.Xen.System.topo ~domains:[ d ] ~active:(fun _ _ -> false) in
  Alcotest.(check int) "0 active" 0 (Array.fold_left ( + ) 0 occ_none)

let test_sched_balance_spreads () =
  let s = sched_system () in
  let d =
    Xen.System.create_domain s ~name:"stacked" ~kind:Xen.Domain.DomU ~vcpus:8
      ~mem_bytes:(1 lsl 30) ~home_nodes:[| 0 |] ()
  in
  (* 8 vCPUs on node 0's 6 pCPUs: at least two pCPUs are double-booked
     while 42 others idle. *)
  let rng = Sim.Rng.create ~seed:1 in
  let migrations =
    Xen.Sched.balance s.Xen.System.topo ~rng ~domains:[ d ] ~movable:(fun _ -> true)
      ~active:(fun _ _ -> true)
  in
  Alcotest.(check bool) "migrated some" true (List.length migrations >= 2);
  let occ = Xen.Sched.occupancy s.Xen.System.topo ~domains:[ d ] ~active:(fun _ _ -> true) in
  Alcotest.(check int) "no pCPU double-booked" 1 (Array.fold_left max 0 occ)

let test_sched_respects_movable () =
  let s = sched_system () in
  let d =
    Xen.System.create_domain s ~name:"frozen" ~kind:Xen.Domain.DomU ~vcpus:8
      ~mem_bytes:(1 lsl 30) ~home_nodes:[| 0 |] ()
  in
  let rng = Sim.Rng.create ~seed:2 in
  let before = Array.copy d.Xen.Domain.vcpu_pin in
  let migrations =
    Xen.Sched.balance s.Xen.System.topo ~rng ~domains:[ d ] ~movable:(fun _ -> false)
      ~active:(fun _ _ -> true)
  in
  Alcotest.(check int) "nothing moved" 0 (List.length migrations);
  Alcotest.(check (array int)) "pins intact" before d.Xen.Domain.vcpu_pin

let test_sched_balanced_is_stable () =
  let s = sched_system () in
  let d =
    Xen.System.create_domain s ~name:"even" ~kind:Xen.Domain.DomU ~vcpus:48
      ~mem_bytes:(1 lsl 30) ()
  in
  let rng = Sim.Rng.create ~seed:3 in
  Alcotest.(check int) "1:1 layout untouched" 0
    (List.length
       (Xen.Sched.balance s.Xen.System.topo ~rng ~domains:[ d ] ~movable:(fun _ -> true)
          ~active:(fun _ _ -> true)))

let test_engine_unpinned_migration_breaks_locality () =
  let run pinned policy =
    let victim = Engine.Config.vm ~threads:48 ~pinned ~policy (app "cg.C") in
    let neighbour = Engine.Config.vm ~threads:24 ~policy:Policies.Spec.round_4k (app "ep.D") in
    let r = Engine.Runner.run (Engine.Config.make ~seed:4 ~mode:Engine.Config.Xen_plus [ victim; neighbour ]) in
    match List.find_opt (fun vm -> vm.Engine.Result.app_name = "cg.C") r.Engine.Result.vms with
    | Some vm -> vm
    | None -> Alcotest.fail "victim missing"
  in
  let pinned = run true Policies.Spec.first_touch in
  let migrated = run false Policies.Spec.first_touch in
  let healed = run false Policies.Spec.first_touch_carrefour in
  Alcotest.(check bool) "migration hurts locality" true
    (migrated.Engine.Result.local_fraction < pinned.Engine.Result.local_fraction -. 0.1);
  Alcotest.(check bool) "carrefour chases the vCPUs" true
    (healed.Engine.Result.local_fraction > migrated.Engine.Result.local_fraction +. 0.05);
  Alcotest.(check bool) "pages were moved" true (healed.Engine.Result.migrations > 0)

(* ------------------------------ advisor ----------------------------- *)

let test_advisor_classify () =
  Alcotest.(check bool) "high" true (Engine.Advisor.classify ~imbalance:2.5 = Workloads.App.High);
  Alcotest.(check bool) "moderate" true
    (Engine.Advisor.classify ~imbalance:1.0 = Workloads.App.Moderate);
  Alcotest.(check bool) "low" true (Engine.Advisor.classify ~imbalance:0.3 = Workloads.App.Low)

let test_advisor_recommendations () =
  let recommend name =
    (Engine.Advisor.recommend ~mode:Engine.Config.Xen_plus (app name)).Engine.Advisor.policy
  in
  Alcotest.(check string) "thread-local app -> first-touch" "first-touch"
    (Policies.Spec.name (recommend "cg.C"));
  Alcotest.(check string) "master-slave app -> round-4k/carrefour" "round-4k/carrefour"
    (Policies.Spec.name (recommend "kmeans"))

let test_advisor_profile_fields () =
  let p = Engine.Advisor.profile ~mode:Engine.Config.Linux (app "facesim") in
  Alcotest.(check bool) "imbalance near Table 1" true
    (Float.abs (p.Engine.Advisor.imbalance -. 2.53) < 0.3);
  Alcotest.(check bool) "classified high" true (p.Engine.Advisor.class_ = Workloads.App.High)

let suite =
  [
    ( "guest.tlb",
      [
        Alcotest.test_case "coverage" `Quick test_tlb_coverage;
        Alcotest.test_case "small footprint" `Quick test_tlb_small_footprint_never_misses;
        Alcotest.test_case "huge pages reduce misses" `Quick test_tlb_huge_pages_reduce_misses;
        Alcotest.test_case "nested walk costlier" `Quick test_tlb_nested_walk_costlier;
        Alcotest.test_case "hot share" `Quick test_tlb_hot_share_reduces_misses;
        Alcotest.test_case "engine: 2M pages help in VM" `Slow
          test_engine_huge_pages_help_virtualized_big_app;
      ] );
    ( "guest.tlb.walk",
      [
        Alcotest.test_case "uniform radix = flat, exactly" `Quick
          test_walk_radix_uniform_equals_flat;
        qcheck prop_walk_monotone_in_depth;
        qcheck prop_walk_monotone_in_ratio;
        qcheck prop_walk_superpage_path_cheaper;
      ] );
    ( "engine.pt",
      [
        Alcotest.test_case "one node: radix = flat bit for bit" `Slow
          test_engine_pt_walk_one_node_identical;
        Alcotest.test_case "flags off is the default spec" `Quick
          test_engine_pt_flags_off_is_default;
        Alcotest.test_case "replication localises walks" `Slow
          test_engine_replicate_pt_localises_walks;
        Alcotest.test_case "ignored under linux" `Quick test_engine_pt_ignored_under_linux;
      ] );
    ( "xen.sched",
      [
        Alcotest.test_case "occupancy" `Quick test_sched_occupancy;
        Alcotest.test_case "balance spreads" `Quick test_sched_balance_spreads;
        Alcotest.test_case "respects movable" `Quick test_sched_respects_movable;
        Alcotest.test_case "balanced stays put" `Quick test_sched_balanced_is_stable;
        Alcotest.test_case "engine: migration vs carrefour" `Slow
          test_engine_unpinned_migration_breaks_locality;
      ] );
    ( "engine.advisor",
      [
        Alcotest.test_case "classify thresholds" `Quick test_advisor_classify;
        Alcotest.test_case "recommendations" `Quick test_advisor_recommendations;
        Alcotest.test_case "profile fields" `Quick test_advisor_profile_fields;
      ] );
  ]
