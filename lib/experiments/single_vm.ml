let apps = Workloads.Catalogue.all

(* Every figure/table maps independent (app, policy, mode) cells; the
   pool fans the app dimension out over domains.  Results come back in
   app order, so the printed tables are schedule-independent. *)
let grid = Engine.Pool.map_list

let overhead t baseline = (t /. baseline) -. 1.0
let improvement baseline t = baseline /. t

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

type overhead_row = { app : string; overhead : float }

let fig1 ?seed () =
  grid
    (fun app ->
      let linux = Runs.completion ?seed (Runs.linux app Policies.Spec.first_touch) in
      let xen = Runs.completion ?seed (Runs.xen_stock app) in
      { app = app.Workloads.App.name; overhead = overhead xen linux })
    apps

let print_fig1 ?seed () =
  let rows = fig1 ?seed () in
  Report.Chart.print
    ~title:"Figure 1: relative overhead of Xen compared to Linux (lower is better)"
    (List.map (fun r -> (r.app, r.overhead)) rows)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

type policy_row = {
  app : string;
  ft_carrefour : float;
  r4k : float;
  r4k_carrefour : float;
  best : Policies.Spec.t;  (* argmin over the four combinations *)
}

let linux_policy_times ?seed ?(mcs = false) app =
  List.map
    (fun policy -> (policy, Runs.completion ?seed (Runs.linux ~mcs app policy)))
    Policies.Spec.
      [ first_touch; first_touch_carrefour; round_4k; round_4k_carrefour ]

(* The paper's LinuxNUMA / Xen+NUMA baselines are "the best policy we
   measured for this application" (Table 4); we use our own measured
   argmin the same way, with MCS applied to facesim/streamcluster. *)
let best_time times = List.fold_left (fun acc (_, t) -> Float.min acc t) Float.infinity times

let linux_numa_time ?seed app = best_time (linux_policy_times ?seed ~mcs:(Runs.uses_mcs app) app)

let best_of times = fst (List.fold_left (fun (bp, bt) (p, t) -> if t < bt then (p, t) else (bp, bt))
                           (Policies.Spec.first_touch, Float.infinity) times)

let fig2 ?seed () =
  grid
    (fun app ->
      let times = linux_policy_times ?seed app in
      let time p = List.assoc p times in
      let ft = time Policies.Spec.first_touch in
      {
        app = app.Workloads.App.name;
        ft_carrefour = improvement ft (time Policies.Spec.first_touch_carrefour);
        r4k = improvement ft (time Policies.Spec.round_4k);
        r4k_carrefour = improvement ft (time Policies.Spec.round_4k_carrefour);
        best = best_of times;
      })
    apps

let print_fig2 ?seed () =
  let rows = fig2 ?seed () in
  print_string
    (Report.Chart.render_groups
       ~title:
         "Figure 2: improvement of Linux NUMA policies relative to first-touch (higher is better)"
       ~series:[ "ft/carrefour"; "round-4k"; "r4k/carrefour" ]
       (List.map (fun r -> (r.app, [ r.ft_carrefour; r.r4k; r.r4k_carrefour ])) rows))

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type tab1_row = {
  app : string;
  imb_ft : float;
  imb_r4k : float;
  ic_ft : float;
  ic_r4k : float;
  class_ : Workloads.App.imbalance_class;  (* from the measured imb_ft *)
  lat_ft : Engine.Result.latency_summary;
      (* tail latency of the first-touch run (the table's reference
         policy): p50/p95/p99/p99.9 over per-vCPU epoch samples *)
}

let classify imb =
  if imb > 1.30 then Workloads.App.High
  else if imb >= 0.85 then Workloads.App.Moderate
  else Workloads.App.Low

let tab1 ?seed () =
  grid
    (fun app ->
      let ft = Runs.run ?seed (Runs.linux app Policies.Spec.first_touch) in
      let r4k = Runs.run ?seed (Runs.linux app Policies.Spec.round_4k) in
      let imb_ft = ft.Engine.Result.imbalance in
      {
        app = app.Workloads.App.name;
        imb_ft;
        imb_r4k = r4k.Engine.Result.imbalance;
        ic_ft = ft.Engine.Result.interconnect_load;
        ic_r4k = r4k.Engine.Result.interconnect_load;
        class_ = classify imb_ft;
        lat_ft = (Engine.Result.single ft).Engine.Result.latency;
      })
    apps

let print_tab1 ?seed () =
  let rows = tab1 ?seed () in
  print_endline
    "Table 1: load imbalance and interconnect load of the static policies in Linux";
  print_endline "(measured | paper)";
  Report.Table.print
    ~header:[ "app"; "imb FT"; "imb R4K"; "IC FT"; "IC R4K"; "level" ]
    (List.map2
       (fun r app ->
         let p = app.Workloads.App.paper in
         [
           r.app;
           Printf.sprintf "%s|%s" (Report.Table.fmt_pct r.imb_ft)
             (Report.Table.fmt_pct p.Workloads.App.imbalance_ft);
           Printf.sprintf "%s|%s" (Report.Table.fmt_pct r.imb_r4k)
             (Report.Table.fmt_pct p.Workloads.App.imbalance_r4k);
           Printf.sprintf "%s|%s" (Report.Table.fmt_pct r.ic_ft)
             (Report.Table.fmt_pct p.Workloads.App.interconnect_ft);
           Printf.sprintf "%s|%s" (Report.Table.fmt_pct r.ic_r4k)
             (Report.Table.fmt_pct p.Workloads.App.interconnect_r4k);
           Printf.sprintf "%s|%s"
             (Workloads.App.class_name r.class_)
             (Workloads.App.class_name p.Workloads.App.class_);
         ])
       rows apps);
  print_newline ();
  print_endline "Tail latency of the first-touch runs (cycles, per-vCPU epoch samples)";
  Report.Table.print
    ~header:(Report.Table.latency_header ~first:"app")
    (List.map
       (fun r ->
         let l = r.lat_ft in
         Report.Table.latency_row ~first:r.app ~samples:l.Engine.Result.samples
           ~mean:l.Engine.Result.lat_mean ~p50:l.Engine.Result.p50 ~p95:l.Engine.Result.p95
           ~p99:l.Engine.Result.p99 ~p999:l.Engine.Result.p999 ~max:l.Engine.Result.lat_max)
       rows)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let print_tab2 () =
  print_endline "Table 2: behaviour of the applications";
  Report.Table.print
    ~header:[ "app"; "suite"; "hard drive MB/s"; "ctx switches k/s"; "memory MB" ]
    (List.map
       (fun app ->
         [
           app.Workloads.App.name;
           Workloads.App.suite_name app.Workloads.App.suite;
           Printf.sprintf "%.0f" app.Workloads.App.disk_mb_s;
           Printf.sprintf "%.1f" app.Workloads.App.ctx_switch_k_s;
           string_of_int app.Workloads.App.footprint_mb;
         ])
       apps)

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

type fig6_row = { app : string; linux : float; xen : float; xen_plus : float }

let fig6 ?seed () =
  grid
    (fun app ->
      let base = linux_numa_time ?seed app in
      let linux = Runs.completion ?seed (Runs.linux app Policies.Spec.first_touch) in
      let xen = Runs.completion ?seed (Runs.xen_stock app) in
      let xen_plus = Runs.completion ?seed (Runs.xen_plus_default app) in
      {
        app = app.Workloads.App.name;
        linux = overhead linux base;
        xen = overhead xen base;
        xen_plus = overhead xen_plus base;
      })
    apps

let print_fig6 ?seed () =
  let rows = fig6 ?seed () in
  print_string
    (Report.Chart.render_groups
       ~title:"Figure 6: overhead of Linux, Xen and Xen+ compared to LinuxNUMA (lower is better)"
       ~series:[ "linux"; "xen"; "xen+" ]
       (List.map (fun r -> (r.app, [ r.linux; r.xen; r.xen_plus ])) rows))

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

type fig7_row = {
  app : string;
  ft : float;
  ft_carrefour : float;
  r4k : float;
  r4k_carrefour : float;
  best : Policies.Spec.t;
}

let xen_policy_times ?seed app =
  let mcs = Runs.uses_mcs app in
  List.map
    (fun policy -> (policy, Runs.completion ?seed (Runs.xen_plus ~mcs app policy)))
    Policies.Spec.
      [ first_touch; first_touch_carrefour; round_4k; round_4k_carrefour; round_1g ]

let xen_numa_time ?seed app = best_time (xen_policy_times ?seed app)

let fig7 ?seed () =
  grid
    (fun app ->
      let times = xen_policy_times ?seed app in
      let time p = List.assoc p times in
      let base = time Policies.Spec.round_1g in
      {
        app = app.Workloads.App.name;
        ft = improvement base (time Policies.Spec.first_touch);
        ft_carrefour = improvement base (time Policies.Spec.first_touch_carrefour);
        r4k = improvement base (time Policies.Spec.round_4k);
        r4k_carrefour = improvement base (time Policies.Spec.round_4k_carrefour);
        best = best_of times;
      })
    apps

let print_fig7 ?seed () =
  let rows = fig7 ?seed () in
  print_string
    (Report.Chart.render_groups
       ~title:
         "Figure 7: improvement of the NUMA policies in Xen+ compared to Xen+ (higher is better)"
       ~series:[ "first-touch"; "ft/carrefour"; "round-4k"; "r4k/carrefour" ]
       (List.map (fun r -> (r.app, [ r.ft; r.ft_carrefour; r.r4k; r.r4k_carrefour ])) rows))

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

type tab4_row = {
  app : string;
  best_linux : Policies.Spec.t;
  best_xen : Policies.Spec.t;
  paper_linux : Policies.Spec.t;
  paper_xen : Policies.Spec.t;
}

let tab4 ?seed () =
  grid
    (fun app ->
      let linux_times = linux_policy_times ?seed app in
      let xen_times = xen_policy_times ?seed app in
      {
        app = app.Workloads.App.name;
        best_linux = best_of linux_times;
        best_xen = best_of xen_times;
        paper_linux = app.Workloads.App.paper.Workloads.App.best_linux;
        paper_xen = app.Workloads.App.paper.Workloads.App.best_xen;
      })
    apps

let print_tab4 ?seed () =
  let rows = tab4 ?seed () in
  print_endline "Table 4: best NUMA policies (measured vs paper)";
  Report.Table.print
    ~header:[ "app"; "LinuxNUMA"; "paper"; "Xen+NUMA"; "paper" ]
    ~align:[ Report.Table.Left; Left; Left; Left; Left ]
    (List.map
       (fun r ->
         [
           r.app;
           Policies.Spec.name r.best_linux;
           Policies.Spec.name r.paper_linux;
           Policies.Spec.name r.best_xen;
           Policies.Spec.name r.paper_xen;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

type fig10_row = { app : string; xen_plus : float; xen_plus_numa : float }

let fig10 ?seed () =
  grid
    (fun app ->
      let base = linux_numa_time ?seed app in
      let xen_plus = Runs.completion ?seed (Runs.xen_plus_default app) in
      let xen_plus_numa = xen_numa_time ?seed app in
      {
        app = app.Workloads.App.name;
        xen_plus = overhead xen_plus base;
        xen_plus_numa = overhead xen_plus_numa base;
      })
    apps

let print_fig10 ?seed () =
  let rows = fig10 ?seed () in
  print_string
    (Report.Chart.render_groups
       ~title:
         "Figure 10: overhead of Xen+ and Xen+NUMA compared to LinuxNUMA (lower is better)"
       ~series:[ "xen+"; "xen+numa" ]
       (List.map (fun r -> (r.app, [ r.xen_plus; r.xen_plus_numa ])) rows))
