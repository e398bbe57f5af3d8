(* Tests for the workloads library: the 29-app catalogue and the
   derived behaviour parameters. *)

let all = Workloads.Catalogue.all

let test_catalogue_count () =
  Alcotest.(check int) "29 applications" 29 (List.length all);
  Alcotest.(check int) "29 names" 29 (List.length Workloads.Catalogue.names)

let count_apps p = List.length (List.filter p Workloads.Catalogue.all)

let test_catalogue_class_counts () =
  (* Section 3.5.2: 11 low, 5 moderate, 13 high. *)
  let of_class c app = app.Workloads.App.paper.Workloads.App.class_ = c in
  Alcotest.(check int) "low" 11 (count_apps (of_class Workloads.App.Low));
  Alcotest.(check int) "moderate" 5 (count_apps (of_class Workloads.App.Moderate));
  Alcotest.(check int) "high" 13 (count_apps (of_class Workloads.App.High))

let test_catalogue_suites () =
  let in_suite s app = app.Workloads.App.suite = s in
  Alcotest.(check int) "parsec 6" 6 (count_apps (in_suite Workloads.App.Parsec));
  Alcotest.(check int) "npb 9" 9 (count_apps (in_suite Workloads.App.Npb));
  Alcotest.(check int) "mosbench 7" 7 (count_apps (in_suite Workloads.App.Mosbench));
  Alcotest.(check int) "x-stream 5" 5 (count_apps (in_suite Workloads.App.Xstream));
  Alcotest.(check int) "ycsb 2" 2 (count_apps (in_suite Workloads.App.Ycsb))

let test_catalogue_find () =
  (match Workloads.Catalogue.find "cg.C" with
  | Some app -> Alcotest.(check string) "found" "cg.C" app.Workloads.App.name
  | None -> Alcotest.fail "cg.C missing");
  (match Workloads.Catalogue.find "WRMEM" with
  | Some app -> Alcotest.(check string) "case insensitive" "wrmem" app.Workloads.App.name
  | None -> Alcotest.fail "wrmem missing");
  Alcotest.(check bool) "unknown is None" true (Workloads.Catalogue.find "quake3" = None)

let test_catalogue_get () =
  Alcotest.(check string) "case insensitive" "wrmem"
    (Workloads.Catalogue.get "WRMEM").Workloads.App.name;
  match Workloads.Catalogue.get "nope" with
  | _ -> Alcotest.fail "unknown app accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the app and lists every valid one"
        (Printf.sprintf "unknown application %S; try one of: %s" "nope"
           (String.concat ", " Workloads.Catalogue.names))
        msg

let test_catalogue_table2_spot_checks () =
  let get = Workloads.Catalogue.get in
  let dc = get "dc.B" in
  Alcotest.(check int) "dc.B footprint" 39273 dc.Workloads.App.footprint_mb;
  Alcotest.(check (float 0.01)) "dc.B disk" 175.0 dc.Workloads.App.disk_mb_s;
  let memcached = get "memcached" in
  Alcotest.(check (float 0.01)) "memcached ctx" 127.1 memcached.Workloads.App.ctx_switch_k_s;
  Alcotest.(check bool) "memcached is a network service" true memcached.Workloads.App.net_service;
  let swaptions = get "swaptions" in
  Alcotest.(check int) "swaptions tiny footprint" 4 swaptions.Workloads.App.footprint_mb

let test_catalogue_master_bias_from_table1 () =
  (* The derivation: imbalance ~ 2.65 * bias on 8 nodes. *)
  List.iter
    (fun app ->
      let expected =
        Float.min 0.97 (app.Workloads.App.paper.Workloads.App.imbalance_ft /. 2.65)
      in
      Alcotest.(check (float 1e-6))
        (app.Workloads.App.name ^ " bias")
        expected app.Workloads.App.master_bias)
    all

let test_catalogue_parameter_ranges () =
  List.iter
    (fun app ->
      let open Workloads.App in
      let name = app.name in
      if app.master_bias < 0.0 || app.master_bias > 0.97 then Alcotest.failf "%s bias" name;
      if app.miss_rate < 0.0015 || app.miss_rate > 0.035 then Alcotest.failf "%s miss" name;
      if app.shared_bytes_fraction < 0.2 || app.shared_bytes_fraction > 0.95 then
        Alcotest.failf "%s shared" name;
      if app.native_seconds <= 0.0 then Alcotest.failf "%s seconds" name;
      if app.footprint_mb <= 0 then Alcotest.failf "%s footprint" name)
    all

let test_catalogue_streamflow_churn () =
  (* wrmem's 15 us release period (Section 4.2.3); non-Mosbench apps
     keep their pages. *)
  let get = Workloads.Catalogue.get in
  (match (get "wrmem").Workloads.App.page_release_period with
  | Some p -> Alcotest.(check (float 1e-12)) "wrmem 15us" 15e-6 p
  | None -> Alcotest.fail "wrmem must churn");
  List.iter
    (fun app ->
      if app.Workloads.App.suite <> Workloads.App.Mosbench then
        Alcotest.(check bool)
          (app.Workloads.App.name ^ " no churn")
          true
          (app.Workloads.App.page_release_period = None))
    all

let test_catalogue_burst_only_for_low_non_carrefour () =
  List.iter
    (fun app ->
      let open Workloads.App in
      if app.remote_burst > 0.0 then begin
        Alcotest.(check bool) (app.name ^ " class low") true (app.paper.class_ = Low);
        Alcotest.(check bool) (app.name ^ " best has no carrefour") false
          app.paper.best_linux.Policies.Spec.carrefour
      end)
    all

let test_app_work_sizing () =
  let get = Workloads.Catalogue.get in
  let app = get "cg.C" in
  let instr = Workloads.App.instructions_per_thread app ~threads:48 ~freq_hz:2.2e9 in
  Alcotest.(check bool) "positive" true (instr > 0.0);
  (* At the assumed latency the work should take about native_seconds. *)
  let cpi = 1.0 +. (app.Workloads.App.miss_rate *. 190.0) in
  Alcotest.(check (float 0.5)) "sizing" app.Workloads.App.native_seconds (instr *. cpi /. 2.2e9)

let test_app_helpers () =
  let get = Workloads.Catalogue.get in
  let memcached = get "memcached" in
  Alcotest.(check (float 1.0)) "sync events = ctx/2" 63550.0
    (Workloads.App.sync_events_per_s memcached);
  let belief = get "belief" in
  Alcotest.(check bool) "belief uses disk" true (Workloads.App.uses_disk belief);
  Alcotest.(check bool) "swaptions does not" false (Workloads.App.uses_disk (get "swaptions"));
  Alcotest.(check (float 1e6)) "belief disk total"
    (234.0 *. 1e6 *. belief.Workloads.App.native_seconds)
    (Workloads.App.disk_bytes_total belief)

let test_best_policy_references () =
  (* Table 4 spot checks. *)
  let get = Workloads.Catalogue.get in
  let check name expected field =
    let app = get name in
    let spec = field app.Workloads.App.paper in
    Alcotest.(check string) name expected (Policies.Spec.name spec)
  in
  check "cg.C" "first-touch" (fun p -> p.Workloads.App.best_linux);
  check "kmeans" "round-4k" (fun p -> p.Workloads.App.best_linux);
  check "sp.C" "round-4k/carrefour" (fun p -> p.Workloads.App.best_xen);
  check "dc.B" "round-1g" (fun p -> p.Workloads.App.best_xen);
  check "memcached" "round-1g" (fun p -> p.Workloads.App.best_xen)

let suite =
  [
    ( "workloads.catalogue",
      [
        Alcotest.test_case "29 apps" `Quick test_catalogue_count;
        Alcotest.test_case "class counts" `Quick test_catalogue_class_counts;
        Alcotest.test_case "suite counts" `Quick test_catalogue_suites;
        Alcotest.test_case "find" `Quick test_catalogue_find;
        Alcotest.test_case "Table 2 spot checks" `Quick test_catalogue_table2_spot_checks;
        Alcotest.test_case "bias derivation" `Quick test_catalogue_master_bias_from_table1;
        Alcotest.test_case "parameter ranges" `Quick test_catalogue_parameter_ranges;
        Alcotest.test_case "streamflow churn" `Quick test_catalogue_streamflow_churn;
        Alcotest.test_case "burst restricted" `Quick test_catalogue_burst_only_for_low_non_carrefour;
        Alcotest.test_case "work sizing" `Quick test_app_work_sizing;
        Alcotest.test_case "helpers" `Quick test_app_helpers;
        Alcotest.test_case "Table 4 references" `Quick test_best_policy_references;
        Alcotest.test_case "get" `Quick test_catalogue_get;
      ] );
  ]
