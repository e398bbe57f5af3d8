(* Integration tests for the engine: configuration, determinism, and
   the qualitative behaviours the paper reports. *)

let app = Workloads.Catalogue.get

let run ?(mode = Engine.Config.Linux) ?(policy = Policies.Spec.first_touch) ?(threads = 48)
    ?(seed = 42) ?use_mcs name =
  let vm = Engine.Config.vm ?use_mcs ~threads ~policy (app name) in
  Engine.Runner.run (Engine.Config.make ~seed ~mode [ vm ])

let completion result = (Engine.Result.single result).Engine.Result.completion

(* ------------------------------- config ---------------------------- *)

let test_config_page_scale_heuristic () =
  let cfg small = Engine.Config.make ~mode:Engine.Config.Linux [ Engine.Config.vm ~policy:Policies.Spec.first_touch (app small) ] in
  (* bodytrack (7 MB) keeps real 4 KiB pages; dc.B (39 GB) scales up. *)
  Alcotest.(check int) "small app scale 1" 1 (Engine.Config.page_scale (cfg "bodytrack"));
  Alcotest.(check bool) "dc.B scales" true (Engine.Config.page_scale (cfg "dc.B") >= 256)

let test_config_validation () =
  Alcotest.check_raises "no vms" (Invalid_argument "Config.make: no VMs") (fun () ->
      ignore (Engine.Config.make ~mode:Engine.Config.Linux []));
  Alcotest.check_raises "bad threads" (Invalid_argument "Config.vm: threads must be positive")
    (fun () -> ignore (Engine.Config.vm ~threads:0 ~policy:Policies.Spec.first_touch (app "cg.C")))

(* [Config.label] is the run's identity: changing any one field that
   can change an event changes it; fast-forward, SLOs and an observer
   change no event and leave it alone.  The base configuration is
   drawn from a seed, the change from the list below. *)
let label_apps = [| "cg.C"; "kmeans"; "swaptions" |]

(* Adjacent plans differ in one rate's last bit. *)
let label_plans = [| "none"; "stall=0.1"; "stall=0.10000000000000002"; "alloc=0.15@10-20" |]

let label_base seed =
  let rs = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let vm () =
    Engine.Config.vm ~threads:(1 + Random.State.int rs 48)
      ?home_nodes:(if Random.State.bool rs then None else Some [| Random.State.int rs 8 |])
      ~use_mcs:(Random.State.bool rs) ~huge_pages:(Random.State.bool rs)
      ~superpages:(Random.State.bool rs) ~pt_walk:(Random.State.bool rs)
      ~replicate_pt:(Random.State.bool rs) ~pinned:(Random.State.bool rs)
      ~policy:(pick (Array.of_list Policies.Spec.all))
      (app (pick label_apps))
  in
  Engine.Config.make ~seed:(Random.State.int rs 1000)
    ~max_epochs:(1 + Random.State.int rs 50_000)
    ?carrefour_config:
      (if Random.State.bool rs then None else Some Experiments.Chaos.eager_carrefour)
    ~machine:(pick (Array.of_list Numa.Machine_desc.all))
    ~faults:(Faults.Plan.of_string_exn (pick label_plans))
    ~mode:(pick [| Engine.Config.Linux; Engine.Config.Xen; Engine.Config.Xen_plus |])
    (List.init (1 + Random.State.int rs 2) (fun _ -> vm ()))

let label_changes : (string * (Engine.Config.t -> Engine.Config.t)) list =
  let open Engine.Config in
  let next a x =
    let i = ref 0 in
    while a.(!i) <> x do incr i done;
    a.((!i + 1) mod Array.length a)
  in
  (* The last VM's field changes. *)
  let vm f cfg =
    match List.rev cfg.vms with v :: r -> { cfg with vms = List.rev (f v :: r) } | [] -> cfg
  in
  let carrefour f cfg =
    let c =
      Option.value cfg.carrefour_config ~default:Policies.Carrefour.User_component.default_config
    in
    { cfg with carrefour_config = Some (f c) }
  in
  let open Policies.Carrefour.User_component in
  [
    ("mode", fun c -> { c with mode = next [| Linux; Xen; Xen_plus |] c.mode });
    ( "machine",
      fun c ->
        let name m = m.Numa.Machine_desc.name in
        let names = Array.of_list (List.map name Numa.Machine_desc.all) in
        { c with machine = Option.get (Numa.Machine_desc.find (next names (name c.machine))) } );
    ("seed", fun c -> { c with seed = c.seed + 1 });
    ("max_epochs", fun c -> { c with max_epochs = c.max_epochs + 1 });
    ( "faults",
      fun c ->
        let plan = Faults.Plan.to_string c.faults in
        { c with faults = Faults.Plan.of_string_exn (next label_plans plan) } );
    ( "carrefour_config",
      fun c ->
        {
          c with
          carrefour_config =
            (match c.carrefour_config with None -> Some default_config | Some _ -> None);
        } );
    ("mc_threshold", carrefour (fun k -> { k with mc_threshold = Float.succ k.mc_threshold }));
    ("ic_threshold", carrefour (fun k -> { k with ic_threshold = Float.succ k.ic_threshold }));
    ( "dominant_fraction",
      carrefour (fun k -> { k with dominant_fraction = Float.succ k.dominant_fraction }) );
    ("min_accesses", carrefour (fun k -> { k with min_accesses = Float.succ k.min_accesses }));
    ( "migration_budget",
      carrefour (fun k -> { k with migration_budget = k.migration_budget + 1 }) );
    ("max_hot_pages", carrefour (fun k -> { k with max_hot_pages = k.max_hot_pages + 1 }));
    ( "enable_replication",
      carrefour (fun k -> { k with enable_replication = not k.enable_replication }) );
    ( "replication_read_threshold",
      carrefour (fun k ->
          { k with replication_read_threshold = Float.succ k.replication_read_threshold }) );
    ("min_reader_nodes", carrefour (fun k -> { k with min_reader_nodes = k.min_reader_nodes + 1 }));
    ("another vm", fun c -> { c with vms = c.vms @ [ List.hd c.vms ] });
    ("app", vm (fun v -> { v with app = app (next label_apps v.app.Workloads.App.name) }));
    ( "policy",
      vm (fun v -> { v with policy = next (Array.of_list Policies.Spec.all) v.policy }) );
    ("threads", vm (fun v -> { v with threads = v.threads + 1 }));
    ( "home_nodes",
      vm (fun v ->
          {
            v with
            home_nodes =
              (match v.home_nodes with
              | None -> Some [| 0 |]
              | Some nodes -> Some (Array.append nodes [| 0 |]));
          }) );
    ("use_mcs", vm (fun v -> { v with use_mcs = not v.use_mcs }));
    ("huge_pages", vm (fun v -> { v with huge_pages = not v.huge_pages }));
    ("superpages", vm (fun v -> { v with superpages = not v.superpages }));
    ("pt_walk", vm (fun v -> { v with pt_walk = not v.pt_walk }));
    ("replicate_pt", vm (fun v -> { v with replicate_pt = not v.replicate_pt }));
    ("pinned", vm (fun v -> { v with pinned = not v.pinned }));
  ]

let prop_config_label_is_identity =
  QCheck.Test.make ~name:"config label names every event-changing field" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length label_changes - 1)))
    (fun (seed, i) ->
      let base = label_base seed in
      let field, change = List.nth label_changes i in
      let label = Engine.Config.label base in
      let same cfg = Engine.Config.label cfg = label in
      if same (change base) then QCheck.Test.fail_reportf "%s unchanged: %s" field label;
      same { base with Engine.Config.fast_forward = not base.Engine.Config.fast_forward }
      && same { base with Engine.Config.slo = [ ("p99", 300.0) ] }
      && same { base with Engine.Config.observer = Some ignore })

(* ---------------------------- determinism --------------------------- *)

let test_runner_deterministic () =
  let r1 = run ~seed:7 "cg.C" and r2 = run ~seed:7 "cg.C" in
  Alcotest.(check (float 1e-12)) "same completion" (completion r1) (completion r2);
  Alcotest.(check (float 1e-12)) "same imbalance" r1.Engine.Result.imbalance r2.Engine.Result.imbalance

let test_runner_result_fields () =
  let r = run "cg.C" in
  let vm = Engine.Result.single r in
  Alcotest.(check string) "app name" "cg.C" vm.Engine.Result.app_name;
  Alcotest.(check string) "policy" "first-touch" vm.Engine.Result.policy;
  Alcotest.(check bool) "epochs counted" true (r.Engine.Result.epochs > 0);
  Alcotest.(check bool) "positive completion" true (vm.Engine.Result.completion > 0.0);
  Alcotest.(check (float 1e-9)) "completion lookup" vm.Engine.Result.completion
    (Engine.Result.completion r "cg.C")

(* ----------------------- Table 1 reproductions ---------------------- *)

let test_imbalance_matches_table1 () =
  (* The first-touch imbalance is the calibrated quantity: it must land
     close to the paper's measurement. *)
  List.iter
    (fun (name, expected) ->
      let r = run name in
      Alcotest.(check (float 0.15))
        (name ^ " FT imbalance")
        expected r.Engine.Result.imbalance)
    [ ("cg.C", 0.07); ("facesim", 2.53); ("kmeans", 2.51); ("wrmem", 1.35) ]

let test_round4k_balances () =
  let ft = run "kmeans" in
  let r4k = run ~policy:Policies.Spec.round_4k "kmeans" in
  Alcotest.(check bool) "round-4k balances the controllers" true
    (r4k.Engine.Result.imbalance < 0.3 *. ft.Engine.Result.imbalance);
  Alcotest.(check bool) "first-touch keeps locality" true
    ((Engine.Result.single ft).Engine.Result.local_fraction
    > (Engine.Result.single r4k).Engine.Result.local_fraction)

(* ------------------- policy behaviour per class --------------------- *)

let test_low_class_prefers_first_touch () =
  (* cg.C: thread-local accesses; round-4k destroys locality. *)
  let ft = completion (run "cg.C") in
  let r4k = completion (run ~policy:Policies.Spec.round_4k "cg.C") in
  Alcotest.(check bool) "FT at least 25% faster" true (r4k > 1.25 *. ft)

let test_high_class_prefers_round4k () =
  (* kmeans: master-slave; first-touch saturates the master's node. *)
  let ft = completion (run "kmeans") in
  let r4k = completion (run ~policy:Policies.Spec.round_4k "kmeans") in
  Alcotest.(check bool) "R4K at least 25% faster" true (ft > 1.25 *. r4k)

let test_carrefour_rescues_first_touch () =
  (* On a master-slave app, Carrefour's interleave heuristic spreads
     the hot pages off the overloaded node. *)
  let ft = completion (run "facesim") in
  let ftc = completion (run ~policy:Policies.Spec.first_touch_carrefour "facesim") in
  Alcotest.(check bool) "FT/C faster than FT" true (ftc < 0.9 *. ft)

let test_carrefour_migrations_happen () =
  let r = run ~policy:Policies.Spec.first_touch_carrefour "kmeans" in
  Alcotest.(check bool) "pages migrated" true ((Engine.Result.single r).Engine.Result.migrations > 0)

let test_carrefour_localises_round4k () =
  (* On a thread-local app under round-4k, the migration heuristic
     pulls pages back to their accessing node. *)
  let r4k = run ~policy:Policies.Spec.round_4k "cg.C" in
  let r4kc = run ~policy:Policies.Spec.round_4k_carrefour "cg.C" in
  Alcotest.(check bool) "locality recovered" true
    ((Engine.Result.single r4kc).Engine.Result.local_fraction
    > (Engine.Result.single r4k).Engine.Result.local_fraction +. 0.2)

(* ------------------------ virtualization costs ---------------------- *)

let test_xen_slower_than_linux_on_ipi_heavy_app () =
  (* ua.C context-switches 37k times per second: the virtualized
     IPI/wake-up path hurts (Sections 5.3.2, 5.5). *)
  let linux = completion (run "ua.C") in
  let xen = completion (run ~mode:Engine.Config.Xen "ua.C") in
  Alcotest.(check bool) "at least 30% overhead" true (xen > 1.3 *. linux)

let test_mcs_removes_wakeup_cost () =
  let futex = completion (run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_4k "streamcluster") in
  let mcs =
    completion
      (run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_4k ~use_mcs:true "streamcluster")
  in
  Alcotest.(check bool) "MCS at least 15% faster" true (futex > 1.15 *. mcs)

let test_passthrough_beats_pv_io () =
  (* dc.B reads 175 MB/s from disk: Xen+'s passthrough shaves the pv
     per-request overhead (Section 5.3.3). *)
  let xen = run ~mode:Engine.Config.Xen ~policy:Policies.Spec.round_1g "dc.B" in
  let xen_plus = run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_1g "dc.B" in
  let io r = (Engine.Result.single r).Engine.Result.io_overhead in
  Alcotest.(check bool) "io overhead reduced" true (io xen_plus < 0.6 *. io xen);
  Alcotest.(check bool) "completion reduced" true (completion xen_plus < completion xen)

let test_first_touch_disables_passthrough () =
  (* The IOMMU incompatibility: under first-touch, Xen+ falls back to
     the pv I/O path (Section 4.4.1). *)
  let r1g = run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_1g "dc.B" in
  let ft = run ~mode:Engine.Config.Xen_plus "dc.B" in
  let io r = (Engine.Result.single r).Engine.Result.io_overhead in
  Alcotest.(check bool) "first-touch pays pv io" true (io ft > 1.5 *. io r1g)

let test_release_churn_charged_only_under_first_touch () =
  let ft = run ~mode:Engine.Config.Xen_plus "wrmem" in
  let r4k = run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_4k "wrmem" in
  Alcotest.(check bool) "ft churn positive" true
    ((Engine.Result.single ft).Engine.Result.release_overhead > 0.0);
  Alcotest.(check (float 1e-12)) "r4k no churn" 0.0
    (Engine.Result.single r4k).Engine.Result.release_overhead

let test_virt_overhead_only_under_xen () =
  let linux = run "cg.C" in
  let xen = run ~mode:Engine.Config.Xen "cg.C" in
  Alcotest.(check bool) "xen faults cost more" true
    ((Engine.Result.single xen).Engine.Result.virt_overhead
    > (Engine.Result.single linux).Engine.Result.virt_overhead)

(* --------------------------- consolidation -------------------------- *)

let test_consolidation_halves_throughput () =
  let solo = completion (run ~mode:Engine.Config.Xen_plus ~policy:Policies.Spec.round_4k "cg.C") in
  let vms =
    [
      Engine.Config.vm ~threads:48 ~policy:Policies.Spec.round_4k (app "cg.C");
      Engine.Config.vm ~threads:48 ~policy:Policies.Spec.round_4k (app "ep.D");
    ]
  in
  let r = Engine.Runner.run (Engine.Config.make ~mode:Engine.Config.Xen_plus vms) in
  let consolidated = Engine.Result.completion r "cg.C" in
  Alcotest.(check bool) "roughly half speed" true
    (consolidated > 1.5 *. solo && consolidated < 3.5 *. solo)

let test_split_halves_are_disjoint () =
  let vms =
    [
      Engine.Config.vm ~threads:24 ~home_nodes:[| 0; 1; 2; 3 |] ~policy:Policies.Spec.round_4k
        (app "cg.C");
      Engine.Config.vm ~threads:24 ~home_nodes:[| 4; 5; 6; 7 |] ~policy:Policies.Spec.round_4k
        (app "ep.D");
    ]
  in
  let r = Engine.Runner.run (Engine.Config.make ~mode:Engine.Config.Xen_plus vms) in
  Alcotest.(check int) "two results" 2 (List.length r.Engine.Result.vms);
  List.iter
    (fun vm -> Alcotest.(check bool) "both finish" true (vm.Engine.Result.completion > 0.0))
    r.Engine.Result.vms

(* ------------------------------ outcome ----------------------------- *)

(* The outcome's conservation law: a VM's completion is its compute
   time plus its I/O, virtualization and release terms, in that order,
   bit for bit, and no term is negative.  One cell of each kind the
   benchmark runs: static, Carrefour, two VMs, and faulted churn, where
   the concrete queue runs beside the analytic release charge; and one
   cell per other charge: page-table replica propagation, the
   uncorrectable-ECC handler's remaps and native costs under Linux,
   with disk I/O. *)
let test_outcome_terms_sum_to_completion () =
  let vm = Engine.Config.vm in
  let cells =
    [
      ( "static",
        Engine.Config.make ~mode:Engine.Config.Xen
          [ vm ~threads:16 ~policy:Policies.Spec.round_4k (app "cassandra") ] );
      ( "carrefour",
        Engine.Config.make ~mode:Engine.Config.Xen_plus
          [ vm ~threads:8 ~policy:Policies.Spec.round_4k_carrefour (app "streamcluster") ] );
      ( "two VMs",
        Engine.Config.make ~mode:Engine.Config.Xen_plus
          [
            vm ~threads:24 ~home_nodes:[| 0; 1; 2; 3 |] ~policy:Policies.Spec.first_touch
              (app "cg.C");
            vm ~threads:24 ~home_nodes:[| 4; 5; 6; 7 |] ~policy:Policies.Spec.round_4k (app "ep.D");
          ] );
      ( "faulted churn",
        Engine.Config.make ~faults:(Faults.Plan.of_string_exn "hypercall=0.0")
          ~mode:Engine.Config.Xen_plus
          [ vm ~policy:Policies.Spec.first_touch (app "wrmem") ] );
      ( "replicated page tables",
        Engine.Config.make ~mode:Engine.Config.Xen_plus
          [ vm ~threads:16 ~replicate_pt:true ~policy:Policies.Spec.first_touch (app "swaptions") ]
      );
      ( "ecc-ue",
        Engine.Config.make ~faults:(Faults.Plan.of_string_exn "ecc-ue=0.3")
          ~mode:Engine.Config.Xen_plus
          [ vm ~threads:16 ~superpages:true ~policy:Policies.Spec.round_1g (app "swaptions") ] );
      ( "linux",
        Engine.Config.make ~mode:Engine.Config.Linux
          [ vm ~threads:16 ~policy:Policies.Spec.first_touch (app "cassandra") ] );
    ]
  in
  List.iter
    (fun (cell, cfg) ->
      List.iter
        (fun (v : Engine.Result.vm_result) ->
          let name = Printf.sprintf "%s, %s" cell v.Engine.Result.app_name in
          let open Engine.Result in
          List.iter
            (fun (term, x) -> if not (x >= 0.0) then Alcotest.failf "%s: %s = %h" name term x)
            [
              ("compute_time", v.compute_time);
              ("io_overhead", v.io_overhead);
              ("virt_overhead", v.virt_overhead);
              ("release_overhead", v.release_overhead);
            ];
          Alcotest.(check int64)
            (name ^ ": completion = compute + io + virt + release")
            (Int64.bits_of_float
               (v.compute_time +. v.io_overhead +. v.virt_overhead +. v.release_overhead))
            (Int64.bits_of_float v.completion);
          let charged what x = if not (x > 0.0) then Alcotest.failf "%s: no %s charged" name what in
          match cell with
          | "faulted churn" -> charged "release churn" v.release_overhead
          | "replicated page tables" -> charged "replica propagation" v.pt_replica_time
          | "ecc-ue" ->
              if v.degradation.ecc_ue = 0 then Alcotest.failf "%s: no uncorrectable error" name
          | "linux" -> charged "disk I/O" v.io_overhead
          | _ -> ())
        (Engine.Runner.run cfg).Engine.Result.vms)
    cells

(* ----------------------------- superpages --------------------------- *)

let run_sp ?(superpages = true) ?(mode = Engine.Config.Xen_plus) policy =
  let vm = Engine.Config.vm ~superpages ~policy (app "cg.C") in
  Engine.Runner.run (Engine.Config.make ~seed:42 ~mode [ vm ])

let test_superpages_round1g_keeps_and_wins () =
  let off = Engine.Result.single (run_sp ~superpages:false Policies.Spec.round_1g) in
  let on = Engine.Result.single (run_sp Policies.Spec.round_1g) in
  (* The boot placement is 1 GiB blocks, so every extent is contiguous
     and single-node: full superpage backing, never splintered, and the
     extra TLB reach can only help. *)
  Alcotest.(check bool) "full coverage" true (on.Engine.Result.superpage_fraction > 0.99);
  Alcotest.(check int) "never splintered" 0 on.Engine.Result.splinters;
  Alcotest.(check bool) "on is no slower than off" true
    (on.Engine.Result.completion <= off.Engine.Result.completion);
  Alcotest.(check int) "off has no superpages" 0 off.Engine.Result.superpages

let test_superpages_round4k_never_forms_any () =
  let on = Engine.Result.single (run_sp Policies.Spec.round_4k) in
  (* Per-page interleave: extents are multi-node, so neither the boot
     path nor the promotion scan can ever coalesce one. *)
  Alcotest.(check int) "no superpages" 0 on.Engine.Result.superpages;
  Alcotest.(check int) "no promotes" 0 on.Engine.Result.promotes

let test_superpages_first_touch_splinters () =
  let on = Engine.Result.single (run_sp Policies.Spec.first_touch) in
  (* The policy switch releases the guest free list; every invalidation
     inside a boot-time superpage demotes it, so the TLB benefit is
     mostly gone by the time the workload runs. *)
  Alcotest.(check bool) "splinter storm" true (on.Engine.Result.splinters > 100);
  Alcotest.(check bool) "coverage collapsed" true
    (on.Engine.Result.superpage_fraction < 0.5)

let test_superpages_ignored_under_linux () =
  let on = Engine.Result.single (run_sp ~mode:Engine.Config.Linux Policies.Spec.first_touch) in
  Alcotest.(check int) "no p2m, no superpages" 0 on.Engine.Result.superpages;
  Alcotest.(check int) "no splinters" 0 on.Engine.Result.splinters

(* ------------------------------ threads ----------------------------- *)

let test_fewer_threads_slower () =
  let t48 = completion (run ~threads:48 "ep.D") in
  let t12 = completion (run ~threads:12 "ep.D") in
  Alcotest.(check bool) "12 threads slower than 48" true (t12 > 2.0 *. t48)

(* ---------------------------- fast-forward --------------------------- *)

let qcheck = QCheck_alcotest.to_alcotest

(* The fault plans the fast-forward property runs under: empty, then
   windows of each kind the replay must step around, then whole-run
   plans whose epochs replay when no fault fires, then a first-touch
   churn plan (on the fault suite's shrunk wrmem) whose pv queue keeps
   the VM from arming. *)
let ff_fault_plans =
  [|
    "";
    "stall=1.0@5-15";
    "ecc-ue=0.5@10-20";
    "node_fail=0.5@10-25";
    "stall=0.02";
    "alloc=0.15";
    "batch-loss=0.3";
  |]

(* The fast-forward acceptance property: with quiescence-tracked delta
   replay on, every reduced field of the result record — completions,
   latencies, histograms, local fractions, degradation counters — is
   structurally identical (floats compared bitwise) to the naive run's;
   only the [replayed_epochs] accounting may differ.  Randomised over
   policy, superpages, pt-walk, vCPU count, seed, fault plan and
   pinning, so replay is exercised under Carrefour decade boundaries,
   promote scans, fault windows, unpinned vCPUs and small and
   odd-sized VMs. *)
let prop_ff_run_identical =
  QCheck.Test.make ~name:"fast-forward result equals naive" ~count:8
    QCheck.(
      pair
        (quad (int_range 0 9) (int_range 1 9) (int_range 0 1000) bool)
        (pair (int_range 0 (Array.length ff_fault_plans - 1)) bool))
    (fun ((policy_idx, threads, seed, superpages), (plan_idx, pinned)) ->
      let churn = plan_idx = Array.length ff_fault_plans - 1 in
      let policy =
        if churn then Policies.Spec.first_touch
        else List.nth Policies.Spec.all (policy_idx mod List.length Policies.Spec.all)
      in
      let pt_walk = seed mod 2 = 0 in
      let faults = Faults.Plan.of_string_exn ff_fault_plans.(plan_idx) in
      let cell fast_forward =
        let vm =
          Engine.Config.vm ~threads ~superpages ~pt_walk ~pinned ~policy
            (if churn then Test_faults.tiny_app () else app "swaptions")
        in
        Engine.Runner.run
          (Engine.Config.make ~seed ~max_epochs:60 ~faults ~fast_forward
             ~mode:Engine.Config.Xen_plus [ vm ])
      in
      let ff = cell true and naive = cell false in
      naive.Engine.Result.replayed_epochs = 0
      && { ff with Engine.Result.replayed_epochs = 0 } = naive)

let test_ff_replays_steady_state () =
  (* A pinned static-policy Xen+ cell quiesces quickly: most epochs of
     a long run must be replayed, and the escape hatch must force the
     count back to zero. *)
  let cell fast_forward =
    let vm = Engine.Config.vm ~threads:12 ~policy:Policies.Spec.round_4k (app "swaptions") in
    Engine.Runner.run
      (Engine.Config.make ~seed:11 ~max_epochs:120 ~fast_forward
         ~mode:Engine.Config.Xen_plus [ vm ])
  in
  let ff = cell true and naive = cell false in
  Alcotest.(check int) "naive never replays" 0 naive.Engine.Result.replayed_epochs;
  Alcotest.(check bool) "most epochs replayed" true
    (ff.Engine.Result.replayed_epochs > ff.Engine.Result.epochs / 2)

let test_ff_no_whole_run_forks () =
  (* None of these forks the engine: a fault plan replays the epochs in
     which no fault fires, inside its windows or out, unpinned vCPUs
     replay between scheduler moves, and an observer sees the same
     snapshots either way.  The trace must match too: a node failure
     after a replay span stamps its drain time with the manager's
     clock, which only stays right if replayed epochs tick it. *)
  let check name ?(faults = "") ?(pinned = true) ?(threads = 6) ?(vms = 1)
      ?(policy = Policies.Spec.round_4k) ?(superpages = false) ?(max_epochs = 120) () =
    let cell fast_forward =
      let snaps = ref [] in
      let session = Obs.Trace.create ~capacity:32_768 () in
      Obs.Trace.install session;
      let vm = Engine.Config.vm ~threads ~pinned ~policy ~superpages (app "swaptions") in
      let r =
        Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
            Engine.Runner.run
              (Engine.Config.make ~seed:9 ~max_epochs ~fast_forward
                 ~faults:(Faults.Plan.of_string_exn faults)
                 ~observer:(fun s -> snaps := s :: !snaps)
                 ~mode:Engine.Config.Xen_plus (List.init vms (fun _ -> vm))))
      in
      (r, List.rev !snaps, Obs.Trace.render_jsonl session)
    in
    let ff, ff_snaps, ff_trace = cell true in
    let naive, naive_snaps, naive_trace = cell false in
    Alcotest.(check bool) (name ^ ": replays") true (ff.Engine.Result.replayed_epochs > 0);
    Alcotest.(check bool) (name ^ ": result equals naive") true
      ({ ff with Engine.Result.replayed_epochs = 0 } = naive);
    Alcotest.(check bool) (name ^ ": snapshots equal naive") true (ff_snaps = naive_snaps);
    Alcotest.(check string) (name ^ ": trace equals naive") naive_trace ff_trace
  in
  check "faults" ~faults:"stall=0.05@2-30" ();
  (* The benchmark's whole-run plans, on an app without release churn. *)
  List.iter
    (fun faults ->
      List.iter
        (fun (tag, policy) ->
          check (faults ^ " " ^ tag) ~faults ~threads:16 ~policy ~max_epochs:2_000 ())
        [
          ("round-4K", Policies.Spec.round_4k);
          ("ft+carrefour", Policies.Spec.first_touch_carrefour);
        ])
    [ "alloc=0.15,migrate=0.5"; "stall=0.02,hypercall=0.2"; "ecc-ce=0.9"; "node_fail=1.0@50-150" ];
  (* Faults that disturb without stalling: a partial node failure's
     bandwidth keeps falling across its long drain window, and an
     uncorrectable ECC error remaps a page, splintering the P2M
     superpage it sat in. *)
  check "partial node failure" ~faults:"node_fail=0.5@20-200" ~threads:16 ~max_epochs:2_000 ();
  check "ecc-ue superpages" ~faults:"ecc-ue=0.3" ~threads:16 ~policy:Policies.Spec.round_1g
    ~superpages:true ~max_epochs:2_000 ();
  check "node failure" ~faults:"node_fail=1.0@120-170" ~threads:48
    ~policy:Policies.Spec.first_touch ~max_epochs:1_000 ();
  check "unpinned" ~pinned:false ~threads:48 ~vms:2 ~max_epochs:1_000 ();
  check "observer" ()

(* A clean run ticks the manager too.  Six wr vCPUs homed on node 0
   overflow its memory at first touch: every page the allocator places
   elsewhere is fallback debt in the retry queue.  The tick drains that
   debt, and the failing retries trip the breaker on a clock that
   advances, so it also cools down and escalates. *)
let test_clean_run_ticks_manager () =
  let vm =
    Engine.Config.vm ~threads:6 ~home_nodes:[| 0 |] ~policy:Policies.Spec.first_touch_carrefour
      (app "wr")
  in
  let cell fast_forward =
    Engine.Runner.run
      (Engine.Config.make ~seed:42 ~max_epochs:200 ~fast_forward ~mode:Engine.Config.Xen_plus
         [ vm ])
  in
  let r = cell true and naive = cell false in
  Alcotest.(check bool) "fast-forward equals naive" true
    ({ r with Engine.Result.replayed_epochs = 0 } = naive);
  let d = (Engine.Result.single r).Engine.Result.degradation in
  Alcotest.(check int) "no faults injected" 0 r.Engine.Result.faults_injected;
  Alcotest.(check bool) "fallback debt at boot" true (d.Engine.Result.fallback_maps > 0);
  Alcotest.(check int) "breaker trips" 4 d.Engine.Result.breaker_trips;
  Alcotest.(check int) "breaker level" 2 d.Engine.Result.breaker_level

let test_p2m_version_monotone () =
  let t = Xen.P2m.create ~sp_frames:1 ~frames:64 () in
  Alcotest.(check int) "starts at 0" 0 (Xen.P2m.version t);
  Alcotest.(check int) "a read is pure" (Xen.P2m.version t) (Xen.P2m.version t);
  Xen.P2m.set t 3 ~mfn:10 ~writable:true;
  let v1 = Xen.P2m.version t in
  Alcotest.(check bool) "set bumps" true (v1 > 0);
  Xen.P2m.write_protect t 3;
  let v2 = Xen.P2m.version t in
  Alcotest.(check bool) "write_protect bumps" true (v2 > v1);
  (match Xen.P2m.invalidate t 3 with
  | Some _ -> ()
  | None -> Alcotest.fail "entry was mapped");
  let v3 = Xen.P2m.version t in
  Alcotest.(check bool) "invalidate bumps" true (v3 > v2);
  (* No-ops — clearing an Invalid entry, write-protecting an Invalid
     entry — must not bump: two equal reads prove "nothing mutated". *)
  (match Xen.P2m.invalidate t 5 with
  | None -> ()
  | Some _ -> Alcotest.fail "entry 5 should be Invalid");
  Xen.P2m.write_protect t 5;
  Alcotest.(check int) "no-ops keep the version" v3 (Xen.P2m.version t)

(* The replay guard is a pure predicate over the capture arrays: the
   cut sits exactly at [remaining >= cap && remaining - final > 0] for
   every running thread that did work. *)
let test_replay_guard () =
  let guard ?(finish = [| -1.0 |]) ?(doit = [| 1.0 |]) ?(cap = [| 20.0 |]) ?(final = [| 10.0 |])
      remaining =
    Engine.Runner.replay_guard ~finish ~doit ~remaining ~cap ~final
  in
  let check = Alcotest.(check bool) in
  check "headroom" true (guard [| 25.0 |]);
  check "below the ceiling" false (guard [| 15.0 |]);
  check "at the ceiling" true (guard [| 20.0 |]);
  check "would finish" false (guard ~cap:[| 10.0 |] [| 10.0 |]);
  check "one thread short fails all" false
    (guard ~finish:[| -1.0; -1.0 |] ~doit:[| 1.0; 1.0 |] ~cap:[| 20.0; 20.0 |]
       ~final:[| 10.0; 10.0 |] [| 25.0; 15.0 |]);
  check "finished threads ignored" true (guard ~finish:[| 4.2 |] [| 15.0 |]);
  check "idle threads ignored" true (guard ~doit:[| 0.0 |] [| 15.0 |])

(* A replayed epoch's allocation is a pure function of the config on
   one domain, so it is pinned exactly rather than timed: after a
   warm-up every call of the replay stage allocates the same number of
   minor words, and no more than the ceiling.  The ceilings are today's
   counts (OCaml 5.1, no flambda); lower them when the replay allocates
   less, never raise them. *)
let test_replay_stage_allocation () =
  let check name ~mode ~threads ~policy ~ceiling =
    let vm = Engine.Config.vm ~threads ~policy (app "swaptions") in
    let replay = Engine.Runner.replay_stage (Engine.Config.make ~seed:1 ~mode [ vm ]) in
    for _ = 1 to 10 do
      replay ()
    done;
    let words = Array.make 20 0.0 in
    for i = 0 to Array.length words - 1 do
      let before = Gc.minor_words () in
      replay ();
      words.(i) <- Gc.minor_words () -. before
    done;
    let first = int_of_float words.(0) in
    Array.iteri
      (fun i w ->
        Alcotest.(check int) (Printf.sprintf "%s: call %d allocates as call 0" name i) first
          (int_of_float w))
      words;
    if first > ceiling then
      Alcotest.failf "%s: %d minor words per replayed epoch, above the ceiling of %d" name first
        ceiling
  in
  check "Xen+ round-4K, 48 vCPUs" ~mode:Engine.Config.Xen_plus ~threads:48
    ~policy:Policies.Spec.round_4k ~ceiling:192;
  check "Xen+ first-touch, 48 vCPUs" ~mode:Engine.Config.Xen_plus ~threads:48
    ~policy:Policies.Spec.first_touch ~ceiling:106;
  check "Linux round-4K, 8 vCPUs" ~mode:Engine.Config.Linux ~threads:8
    ~policy:Policies.Spec.round_4k ~ceiling:100

(* The replay stage needs an armed state: a run that ends first, at
   its epoch cap or because the fast-forward is off, is a usage
   error. *)
let test_replay_stage_unarmed () =
  let raises name ?fast_forward ~max_epochs () =
    let vm = Engine.Config.vm ~threads:8 ~policy:Policies.Spec.round_4k (app "swaptions") in
    let cfg =
      Engine.Config.make ~seed:1 ~max_epochs ?fast_forward ~mode:Engine.Config.Xen_plus [ vm ]
    in
    Alcotest.check_raises name
      (Invalid_argument "Runner.replay_stage: the run ended before the fast-forward armed")
      (fun () -> ignore (Engine.Runner.replay_stage cfg : unit -> unit))
  in
  raises "cap before the first full epoch" ~max_epochs:1 ();
  raises "fast-forward off" ~fast_forward:false ~max_epochs:60 ()

let suite =
  [
    ( "engine.config",
      [
        Alcotest.test_case "page scale heuristic" `Quick test_config_page_scale_heuristic;
        Alcotest.test_case "validation" `Quick test_config_validation;
        QCheck_alcotest.to_alcotest prop_config_label_is_identity;
      ] );
    ( "engine.runner",
      [
        Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        Alcotest.test_case "result fields" `Quick test_runner_result_fields;
        Alcotest.test_case "Table 1 imbalance" `Slow test_imbalance_matches_table1;
        Alcotest.test_case "round-4k balances" `Quick test_round4k_balances;
      ] );
    ( "engine.policies",
      [
        Alcotest.test_case "low class prefers first-touch" `Quick test_low_class_prefers_first_touch;
        Alcotest.test_case "high class prefers round-4k" `Quick test_high_class_prefers_round4k;
        Alcotest.test_case "carrefour rescues first-touch" `Quick test_carrefour_rescues_first_touch;
        Alcotest.test_case "carrefour migrates" `Quick test_carrefour_migrations_happen;
        Alcotest.test_case "carrefour localises round-4k" `Quick test_carrefour_localises_round4k;
      ] );
    ( "engine.virtualization",
      [
        Alcotest.test_case "ipi-heavy app suffers" `Quick test_xen_slower_than_linux_on_ipi_heavy_app;
        Alcotest.test_case "mcs removes wakeups" `Quick test_mcs_removes_wakeup_cost;
        Alcotest.test_case "passthrough beats pv" `Quick test_passthrough_beats_pv_io;
        Alcotest.test_case "first-touch disables passthrough" `Quick
          test_first_touch_disables_passthrough;
        Alcotest.test_case "release churn first-touch only" `Quick
          test_release_churn_charged_only_under_first_touch;
        Alcotest.test_case "virt overhead xen only" `Quick test_virt_overhead_only_under_xen;
      ] );
    ( "engine.outcome",
      [
        Alcotest.test_case "terms sum to completion" `Quick
          test_outcome_terms_sum_to_completion;
      ] );
    ( "engine.superpages",
      [
        Alcotest.test_case "round-1g keeps them and wins" `Quick
          test_superpages_round1g_keeps_and_wins;
        Alcotest.test_case "round-4k never forms any" `Quick
          test_superpages_round4k_never_forms_any;
        Alcotest.test_case "first-touch splinters" `Quick test_superpages_first_touch_splinters;
        Alcotest.test_case "ignored under linux" `Quick test_superpages_ignored_under_linux;
      ] );
    ( "engine.consolidation",
      [
        Alcotest.test_case "two VMs share the CPUs" `Slow test_consolidation_halves_throughput;
        Alcotest.test_case "split halves" `Quick test_split_halves_are_disjoint;
        Alcotest.test_case "fewer threads slower" `Quick test_fewer_threads_slower;
      ] );
    ( "engine.ff",
      [
        qcheck prop_ff_run_identical;
        Alcotest.test_case "replays steady state" `Quick test_ff_replays_steady_state;
        Alcotest.test_case "no whole-run forks" `Quick test_ff_no_whole_run_forks;
        Alcotest.test_case "clean run ticks manager" `Quick test_clean_run_ticks_manager;
        Alcotest.test_case "p2m version monotone" `Quick test_p2m_version_monotone;
        Alcotest.test_case "replay guard cuts" `Quick test_replay_guard;
        Alcotest.test_case "replay stage allocation ratchet" `Quick test_replay_stage_allocation;
        Alcotest.test_case "replay stage needs an armed run" `Quick test_replay_stage_unarmed;
      ] );
  ]
