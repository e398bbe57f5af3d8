(* Unit tests for the benchmark's workload definitions and statistics.
   Nothing here simulates: cells are only built, and the checker runs
   on hand-built results. *)

open Benchmark

let cells w = match Cells.build ~seed:42 w with Some c -> c | None -> Alcotest.fail w

let test_counts () =
  List.iter2
    (fun w n ->
      let cs = cells w in
      Alcotest.(check int) (w ^ " cells") n (List.length cs);
      let labels = List.sort_uniq compare (List.map (fun c -> c.Cells.label) cs) in
      Alcotest.(check int) (w ^ " distinct labels") n (List.length labels);
      (* Every count leaves at least ten samples beyond the p90. *)
      Alcotest.(check bool) (w ^ " >= 10 beyond p90") true (Measure.beyond 90.0 n >= 10))
    Cells.workloads [ 174; 116; 108; 116 ];
  Alcotest.(check bool) "unknown workload" true (Cells.build ~seed:42 "nope" = None)

let test_pairs () =
  let pairs = Cells.consolidation_pairs in
  let norm (a, b) = if a < b then (a, b) else (b, a) in
  Alcotest.(check int) "29 pairs" 29 (List.length pairs);
  Alcotest.(check int) "distinct" 29 (List.length (List.sort_uniq compare (List.map norm pairs)));
  List.iter
    (fun name ->
      let uses = List.length (List.filter (fun (a, b) -> a = name || b = name) pairs) in
      Alcotest.(check int) (name ^ " in two pairs") 2 uses)
    Workloads.Catalogue.names;
  Alcotest.(check bool) "Fig. 8 pair" true (List.mem ("bodytrack", "streamcluster") pairs);
  (* The seed reaches the cells only through their simulation seeds. *)
  let build seed = Option.get (Cells.build ~seed "consolidation") in
  let labels seed = List.map (fun c -> c.Cells.label) (build seed)
  and seeds seed = List.map (fun c -> c.Cells.config.Engine.Config.seed) (build seed) in
  Alcotest.(check (list string)) "same cells for seeds 42 and 43" (labels 42) (labels 43);
  Alcotest.(check bool) "seed 43 seeds the runs differently" true (seeds 42 <> seeds 43)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Measure.percentile 50.0 xs);
  Alcotest.(check (float 0.0)) "p90" 90.0 (Measure.percentile 90.0 xs);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Measure.percentile 100.0 xs);
  Alcotest.(check (float 0.0)) "one sample" 7.0 (Measure.percentile 90.0 [| 7.0 |]);
  Alcotest.(check int) "10 beyond p90 of 100" 10 (Measure.beyond 90.0 100);
  Alcotest.(check int) "9 beyond p90 of 99" 9 (Measure.beyond 90.0 99);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Measure.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_host_factor () =
  let r = Measure.reference_ms in
  let f cal i = Measure.host_factor cal i in
  Alcotest.(check (float 1e-12)) "reference host" 1.0 (f (Array.make 6 r) 2);
  Alcotest.(check (float 1e-12)) "twice as slow" 0.5 (f (Array.make 6 (2.0 *. r)) 0);
  (* Cell 2's window is calibrations 1 to 4: one outlier leaves it. *)
  let spiky = [| r; r; 9.0 *. r; r; r; 3.0 *. r |] in
  Alcotest.(check (float 1e-12)) "one outlier" 1.0 (f spiky 2);
  Alcotest.(check (float 1e-12)) "last cell" 1.0 (f spiky 4);
  Alcotest.check_raises "past the last cell" (Invalid_argument "host_factor: no such cell")
    (fun () -> ignore (f spiky 5))

let good_vm =
  {
    Engine.Result.app_name = "cg.C";
    policy = "round-1g";
    completion = 12.5;
    compute_time = 12.0;
    io_overhead = 0.0;
    sync_overhead = 0.0;
    virt_overhead = 0.5;
    release_overhead = 0.0;
    faults = 0;
    migrations = 0;
    avg_latency_cycles = 300.0;
    local_fraction = 0.4;
    superpages = 0;
    superpage_fraction = 0.0;
    splinters = 0;
    promotes = 0;
    superpage_migrates = 0;
    walk_cycles_per_instr = 0.0;
    pt_replica_updates = 0;
    pt_replica_invalidations = 0;
    pt_replica_time = 0.0;
    latency = { Engine.Result.no_latency with Engine.Result.samples = 125 };
    slo = [];
    degradation = Engine.Result.no_degradation;
  }

let result ?(epochs = 125) ?(replayed = 0) vm =
  {
    Engine.Result.vms = [ vm ];
    imbalance = 0.1;
    interconnect_load = 0.2;
    epochs;
    replayed_epochs = replayed;
    faults_injected = 0;
  }

let test_check () =
  let cfg = (List.hd (cells "static")).Cells.config in
  let verdict r = Result.is_ok (Measure.check ~max_epochs:cfg.Engine.Config.max_epochs r) in
  Alcotest.(check bool) "good" true (verdict (result good_vm));
  Alcotest.(check bool) "capped" false
    (verdict (result ~epochs:cfg.Engine.Config.max_epochs good_vm));
  Alcotest.(check bool) "NaN completion" false
    (verdict (result { good_vm with Engine.Result.completion = Float.nan }));
  Alcotest.(check bool) "zero completion" false
    (verdict (result { good_vm with Engine.Result.completion = 0.0 }));
  Alcotest.(check bool) "local_fraction > 1" false
    (verdict (result { good_vm with Engine.Result.local_fraction = 1.5 }));
  Alcotest.(check bool) "NaN local_fraction" false
    (verdict (result { good_vm with Engine.Result.local_fraction = Float.nan }));
  Alcotest.(check bool) "no latency samples" false
    (verdict (result { good_vm with Engine.Result.latency = Engine.Result.no_latency }));
  Alcotest.(check bool) "replayed > epochs" false (verdict (result ~replayed:126 good_vm))

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark.cells",
        [
          Alcotest.test_case "workload cell counts" `Quick test_counts;
          Alcotest.test_case "consolidation pairs and seeds" `Quick test_pairs;
        ] );
      ( "benchmark.measure",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "reference-time factor" `Quick test_host_factor;
          Alcotest.test_case "invariant checker" `Quick test_check;
        ] );
    ]
