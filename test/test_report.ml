(* Tests for the report library and the experiments' micro helpers. *)

let test_table_render () =
  let s =
    Report.Table.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: sep :: _ ->
      Alcotest.(check bool) "header first" true
        (String.length header > 0 && String.sub header 0 1 = "a");
      Alcotest.(check bool) "separator dashes" true (String.for_all (fun c -> c = '-') sep)
  | _ -> Alcotest.fail "too few lines");
  Alcotest.(check bool) "contains row" true
    (List.exists (fun l -> String.length l >= 6 && String.sub l 0 6 = "longer") lines)

let test_table_pads_short_rows () =
  let s = Report.Table.render ~header:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_wide_rows () =
  Alcotest.check_raises "row wider" (Invalid_argument "Table.render: row wider than header")
    (fun () -> ignore (Report.Table.render ~header:[ "a" ] [ [ "x"; "y" ] ]))

let test_table_formatters () =
  Alcotest.(check string) "pct" "135%" (Report.Table.fmt_pct 1.35);
  Alcotest.(check string) "ratio" "2.31x" (Report.Table.fmt_ratio 2.31);
  Alcotest.(check string) "secs" "1.50s" (Report.Table.fmt_secs 1.5)

let test_chart_render () =
  let s = Report.Chart.render ~title:"t" [ ("a", 1.0); ("b", 2.0) ] in
  let lines = String.split_on_char '\n' s in
  (* Bar of the max value is full width (50 #), a is half. *)
  let count_hashes l = String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l in
  let bar_a = List.nth lines 2 and bar_b = List.nth lines 3 in
  Alcotest.(check int) "b full" 50 (count_hashes bar_b);
  Alcotest.(check int) "a half" 25 (count_hashes bar_a)

let test_chart_negative () =
  let s = Report.Chart.render ~title:"t" [ ("a", -1.0); ("b", 2.0) ] in
  Alcotest.(check bool) "negative marker" true (String.contains s '-')

let test_chart_groups () =
  let s =
    Report.Chart.render_groups ~title:"g" ~series:[ "s1"; "s2" ]
      [ ("app", [ 1.0; 2.0 ]) ]
  in
  Alcotest.(check bool) "series named" true (String.length s > 0);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Chart.render_groups: series/values length mismatch") (fun () ->
      ignore (Report.Chart.render_groups ~title:"g" ~series:[ "s1" ] [ ("app", [ 1.0; 2.0 ]) ]))

let test_chart_groups_negative () =
  (* A slowdown below baseline (negative delta) must render a leftwards
     marker without scaling the positive bars off the canvas. *)
  let s =
    Report.Chart.render_groups ~title:"g" ~series:[ "s1"; "s2" ]
      [ ("app", [ -0.5; 2.0 ]); ("other", [ 1.0; -2.0 ]) ]
  in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.(check bool) "negative marker" true (String.contains s '-');
  Alcotest.(check bool) "positive bars kept" true (String.contains s '#')

let test_chart_groups_all_zero () =
  (* max_value <= 0: every bar collapses to the empty string rather
     than dividing by zero. *)
  let s =
    Report.Chart.render_groups ~title:"g" ~series:[ "s1"; "s2" ]
      [ ("app", [ 0.0; 0.0 ]); ("other", [ 0.0; 0.0 ]) ]
  in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.(check bool) "no bars drawn" false (String.contains s '#')

(* --------------------------- experiments ---------------------------- *)

let test_micro_dma_sweep () =
  let rows = Experiments.Micro.dma_sweep () in
  Alcotest.(check int) "five block sizes" 5 (List.length rows);
  let first = List.hd rows in
  Alcotest.(check int) "4 KiB first" 4096 first.Experiments.Micro.block;
  Alcotest.(check (float 1e-7)) "native 74us" 74e-6 first.Experiments.Micro.native;
  Alcotest.(check (float 1e-7)) "pv 307us" 307e-6 first.Experiments.Micro.pv;
  Alcotest.(check (float 1e-7)) "pt 186us" 186e-6 first.Experiments.Micro.passthrough;
  (* Overhead amortises with block size. *)
  let last = List.nth rows 4 in
  Alcotest.(check bool) "1 MiB pv ratio < 1.1" true
    (last.Experiments.Micro.pv /. last.Experiments.Micro.native < 1.1)

let test_micro_batching () =
  let r = Experiments.Micro.batching ~ops:20_000 () in
  Alcotest.(check bool) "unbatched much dearer" true
    (r.Experiments.Micro.per_release_unbatched > 5.0 *. r.Experiments.Micro.per_release_batched);
  Alcotest.(check bool) "wrmem unbatched ~3x (paper)" true
    (r.Experiments.Micro.wrmem_slowdown_unbatched > 2.0
    && r.Experiments.Micro.wrmem_slowdown_unbatched < 4.0);
  Alcotest.(check bool) "batched below 1.3x" true
    (r.Experiments.Micro.wrmem_slowdown_batched < 1.3);
  Alcotest.(check (float 0.06)) "invalidation share ~87.5%" 0.875
    r.Experiments.Micro.invalidate_share;
  Alcotest.(check bool) "some pages invalidated" true (r.Experiments.Micro.invalidated > 0)

let test_runs_cache () =
  (* A seed no other test uses: the first run misses the cache. *)
  let seed = 90_001 in
  let app = match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false in
  let key = Experiments.Runs.linux app Policies.Spec.first_touch in
  let t0 = Sys.time () in
  let r1 = Experiments.Runs.run ~seed key in
  let t1 = Sys.time () in
  let r2 = Experiments.Runs.run ~seed key in
  let t2 = Sys.time () in
  Alcotest.(check bool) "same result object" true (r1 == r2);
  Alcotest.(check bool) "cache hit fast" true (t2 -. t1 < (t1 -. t0) +. 0.01)

let test_runs_presets () =
  let app = match Workloads.Catalogue.find "facesim" with Some a -> a | None -> assert false in
  let key = Experiments.Runs.xen_plus_default app in
  Alcotest.(check bool) "facesim xen+ uses mcs" true key.Experiments.Runs.mcs;
  Alcotest.(check bool) "stock xen no mcs" false (Experiments.Runs.xen_stock app).Experiments.Runs.mcs;
  let cg = match Workloads.Catalogue.find "cg.C" with Some a -> a | None -> assert false in
  Alcotest.(check bool) "cg.C no mcs" false (Experiments.Runs.xen_plus_default cg).Experiments.Runs.mcs

let suite =
  [
    ( "report.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
        Alcotest.test_case "rejects wide rows" `Quick test_table_rejects_wide_rows;
        Alcotest.test_case "formatters" `Quick test_table_formatters;
      ] );
    ( "report.chart",
      [
        Alcotest.test_case "render" `Quick test_chart_render;
        Alcotest.test_case "negative values" `Quick test_chart_negative;
        Alcotest.test_case "groups" `Quick test_chart_groups;
        Alcotest.test_case "groups with negative values" `Quick test_chart_groups_negative;
        Alcotest.test_case "groups all zero" `Quick test_chart_groups_all_zero;
      ] );
    ( "experiments.micro",
      [
        Alcotest.test_case "dma sweep" `Quick test_micro_dma_sweep;
        Alcotest.test_case "batching" `Quick test_micro_batching;
      ] );
    ( "experiments.runs",
      [
        Alcotest.test_case "cache" `Quick test_runs_cache;
        Alcotest.test_case "presets" `Quick test_runs_presets;
      ] );
  ]
