(* xen-numa-sim: run one application under a chosen mode and NUMA
   policy on a simulated NUMA host (the paper's AMD48 by default). *)

open Cmdliner

let mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "linux" | "native" -> Ok Engine.Config.Linux
    | "xen" -> Ok Engine.Config.Xen
    | "xen+" | "xenplus" | "xen-plus" -> Ok Engine.Config.Xen_plus
    | _ -> Error (`Msg (Printf.sprintf "unknown mode %S (linux|xen|xen+)" s))
  in
  let print fmt mode = Format.pp_print_string fmt (Engine.Config.mode_name mode) in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    match Policies.Spec.of_string s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Policies.Spec.pp)

let app_conv =
  let parse s =
    match Workloads.Catalogue.get s with
    | app -> Ok app
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print fmt app = Format.pp_print_string fmt app.Workloads.App.name in
  Arg.conv (parse, print)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Application to run.")

let mode_arg =
  Arg.(value & opt mode_conv Engine.Config.Xen_plus & info [ "m"; "mode" ] ~docv:"MODE"
         ~doc:"Execution mode: linux, xen or xen+.")

let policy_arg =
  Arg.(value & opt policy_conv Policies.Spec.round_4k
       & info [ "p"; "policy" ] ~docv:"POLICY"
           ~doc:"NUMA policy: first-touch, round-4k, round-1g, optionally with /carrefour.")

let threads_arg =
  Arg.(value & opt int 48
       & info [ "t"; "threads" ] ~docv:"N"
           ~doc:"Threads (= vCPUs), from 1 to the simulated host's CPU count.")

(* The domain builder pins one vCPU per pCPU, so a run takes 1 to the
   host's CPU count threads; anything else is a usage error. *)
let check_threads (machine : Numa.Machine_desc.t) threads k =
  let cpus = Numa.Topology.cpu_count (machine.Numa.Machine_desc.topology ()) in
  if threads < 1 || threads > cpus then
    `Error
      ( true,
        Printf.sprintf "--threads must be between 1 and %d (the %s host's CPU count), got %d"
          cpus machine.Numa.Machine_desc.name threads )
  else `Ok (k ())

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let mcs_arg =
  Arg.(value & flag & info [ "mcs" ] ~doc:"Replace pthread mutex/condvar by MCS spin loops.")

let huge_arg =
  Arg.(value & flag & info [ "huge-pages" ] ~doc:"Back the application with 2 MiB pages.")

let pt_walk_arg =
  Arg.(value & flag
       & info [ "pt-walk" ]
           ~doc:"Price TLB misses with the radix page-walk model: each walk level \
                 is charged at the latency of the node holding that page-table \
                 level, instead of the flat walk constant.  Off, walk costs are \
                 bit-identical to the flat model.  Ignored in linux mode.")

let replicate_pt_arg =
  Arg.(value & flag
       & info [ "replicate-pt" ]
           ~doc:"Mirror the page tables onto every home node (the Mitosis \
                 policy): page walks resolve from the local mirror, and every \
                 P2M update pays a per-mirror write-propagation cost.  Mirrors \
                 are priced by their count; no copy of the tables is kept.  \
                 Most useful together with $(b,--pt-walk).  Ignored in linux \
                 mode.")

let unpinned_arg =
  Arg.(value & flag & info [ "unpinned" ]
         ~doc:"Let the credit scheduler migrate vCPUs instead of pinning them.")

let machine_conv =
  let parse s =
    match Numa.Machine_desc.find s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown machine %S (amd48|intel32)" s))
  in
  let print fmt m = Format.pp_print_string fmt m.Numa.Machine_desc.name in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(value & opt machine_conv Numa.Machine_desc.amd48
       & info [ "machine" ] ~docv:"HOST" ~doc:"Simulated host: amd48 or intel32.")

let faults_conv =
  let parse s =
    match Faults.Plan.of_string s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Faults.Plan.pp)

let faults_arg =
  Arg.(value & opt faults_conv Faults.Plan.empty
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:"Fault-injection plan: comma-separated $(i,site=value[@FROM[-UNTIL]]) \
                 elements where site is one of alloc, node-off, migrate, batch-loss, \
                 op-drop, hypercall, stall, ecc-ce, ecc-ue, node_fail.  \
                 Examples: $(b,migrate=1.0), $(b,alloc=0.3@50-150,stall=0.01), \
                 $(b,node-off=2@100-), $(b,ecc-ce=0.5), $(b,node_fail=1.0@50) \
                 (a random node's bandwidth collapses over a 50-epoch drain window, \
                 then the node goes offline and every domain evacuates it).  The \
                 injection stream is derived from the run seed, so fault runs are \
                 reproducible.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Capture an event trace of the run and write it to $(docv) as \
                 JSONL.  Summarise it with $(b,xen-numa-trace).")

let trace_cap_arg =
  Arg.(value & opt int 4096
       & info [ "trace-cap" ] ~docv:"N"
           ~doc:"Per-stream trace ring capacity; the ring keeps the $(docv) most \
                 recent events and counts the rest as dropped.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect the metrics registry (counters, gauges, latency \
                 histograms) during the run and print it afterwards.")

let slo_conv =
  let parse s =
    match Engine.Config.parse_slo s with Ok o -> Ok o | Error msg -> Error (`Msg msg)
  in
  let print fmt slo =
    Format.pp_print_string fmt
      (String.concat "," (List.map (fun (m, t) -> Printf.sprintf "%s=%g" m t) slo))
  in
  Arg.conv (parse, print)

let slo_arg =
  Arg.(value & opt slo_conv []
       & info [ "slo" ] ~docv:"OBJECTIVES"
           ~doc:"Latency SLO objectives, comma-separated $(i,METRIC=TARGET) pairs where \
                 metric is one of mean, p50, p95, p99, p999 and target is a latency \
                 budget in cycles (e.g. $(b,p99=300,mean=220)).  Each objective is \
                 evaluated per domain every epoch and at end of run; the result lists \
                 per-objective violation epochs and burn rate.  Purely observational: \
                 a run with SLOs is bit-identical to one without.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Enable the runner phase profiler (per-vCPU kernels, sequential \
                 reductions, carrefour feed, P2M batches, PV flushes, manager \
                 ticks) and print the span table after the run.")

let no_fast_forward_arg =
  Arg.(value & flag
       & info [ "no-fast-forward" ]
           ~doc:"Disable the steady-state fast-forward and run every epoch \
                 through the full kernels.  The fast-forward replays quiescent \
                 epochs from captured deltas with bit-identical results and \
                 traces, so this flag only trades speed for nothing — it exists \
                 as the escape hatch and for A/B verification.")

let die msg =
  flush stdout;
  prerr_endline ("xen-numa-sim: " ^ msg);
  exit 1

(* A run that stops at the epoch cap has not completed, and its result
   is no measurement: name the cap and fail after the output. *)
let fail_if_capped (cfg : Engine.Config.t) runs =
  match List.filter (fun (_, result) -> Experiments.Runs.hit_cap cfg result) runs with
  | [] -> ()
  | capped ->
      die
        (Experiments.Runs.cap_message
           (String.concat ", " (List.map fst capped))
           cfg.Engine.Config.max_epochs)

let run_app app mode policy threads seed mcs huge_pages pt_walk replicate_pt unpinned machine
    faults trace trace_cap metrics slo profile no_fast_forward =
  check_threads machine threads @@ fun () ->
  if trace_cap <= 0 then die "--trace-cap must be positive";
  let session =
    Option.map
      (fun file ->
        match Obs.Trace.start ~capacity:trace_cap file with
        | s -> s
        | exception Sys_error msg -> die ("cannot write trace: " ^ msg))
      trace
  in
  if metrics then Obs.Metrics.set_enabled true;
  if profile then begin
    Obs.Profile.reset ();
    Obs.Profile.set_enabled true
  end;
  let vm =
    Engine.Config.vm ~threads ~use_mcs:mcs ~huge_pages ~pt_walk ~replicate_pt
      ~pinned:(not unpinned) ~policy app
  in
  let cfg =
    Engine.Config.make ~seed ~machine ~faults ~slo
      ~fast_forward:(not no_fast_forward) ~mode [ vm ]
  in
  let result = Engine.Runner.run cfg in
  Format.printf "%a@." Engine.Result.pp result;
  if profile then begin
    if metrics then Obs.Profile.commit_metrics ();
    Format.printf "@.%s" (Obs.Profile.render ())
  end;
  (match (session, trace) with
  | Some s, Some file ->
      (* Mirror per-class emission totals into the registry before the
         snapshot is printed, so the file's summary and the registry
         agree. *)
      Obs.Trace.commit_metrics s;
      Obs.Trace.write_file s file;
      Obs.Trace.uninstall ();
      Format.printf "trace written to %s@." file
  | _ -> ());
  if metrics then Format.printf "@.%s" (Obs.Metrics.render ());
  fail_if_capped cfg [ (app.Workloads.App.name, result) ]

let run_cmd =
  let doc = "Run one application under a NUMA policy" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret
            (const run_app $ app_arg $ mode_arg $ policy_arg $ threads_arg $ seed_arg $ mcs_arg
           $ huge_arg $ pt_walk_arg $ replicate_pt_arg $ unpinned_arg $ machine_arg $ faults_arg
           $ trace_arg $ trace_cap_arg $ metrics_arg $ slo_arg $ profile_arg
           $ no_fast_forward_arg))

let list_apps () =
  Report.Table.print
    ~header:[ "app"; "suite"; "class"; "footprint"; "disk MB/s"; "ctx k/s"; "best linux"; "best xen+" ]
    (List.map
       (fun app ->
         let p = app.Workloads.App.paper in
         [
           app.Workloads.App.name;
           Workloads.App.suite_name app.Workloads.App.suite;
           Workloads.App.class_name p.Workloads.App.class_;
           Printf.sprintf "%d MB" app.Workloads.App.footprint_mb;
           Printf.sprintf "%.0f" app.Workloads.App.disk_mb_s;
           Printf.sprintf "%.1f" app.Workloads.App.ctx_switch_k_s;
           Policies.Spec.name p.Workloads.App.best_linux;
           Policies.Spec.name p.Workloads.App.best_xen;
         ])
       Workloads.Catalogue.all)

let list_cmd =
  let doc = "List the 29 applications of the catalogue" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_apps $ const ())

let show_topo () =
  let topo = Numa.Amd48.topology () in
  Format.printf "%a@." Numa.Topology.pp topo;
  Format.printf "@.Latency (cycles): L1 %.0f, L2 %.0f, L3 %.0f@."
    (Numa.Latency.cache_cycles Numa.Amd48.latency Numa.Latency.L1)
    (Numa.Latency.cache_cycles Numa.Amd48.latency Numa.Latency.L2)
    (Numa.Latency.cache_cycles Numa.Amd48.latency Numa.Latency.L3);
  List.iter
    (fun hops ->
      Format.printf "memory %d hop(s): %.0f cycles idle, %.0f contended@." hops
        (Numa.Latency.mem_cycles Numa.Amd48.latency ~hops ~saturation:0.0)
        (Numa.Latency.mem_cycles Numa.Amd48.latency ~hops ~saturation:1.0))
    [ 0; 1; 2 ]

let topo_cmd =
  let doc = "Print the AMD48 topology and latency model" in
  Cmd.v (Cmd.info "topology" ~doc) Term.(const show_topo $ const ())

let compare_policies app mode threads seed =
  check_threads Numa.Machine_desc.amd48 threads @@ fun () ->
  let cfg policy = Engine.Config.make ~seed ~mode [ Engine.Config.vm ~threads ~policy app ] in
  let results =
    List.map
      (fun policy -> (Policies.Spec.name policy, Engine.Runner.run (cfg policy)))
      Policies.Spec.all
  in
  let completion result = (Engine.Result.single result).Engine.Result.completion in
  let best =
    List.fold_left (fun acc (_, r) -> Float.min acc (completion r)) Float.infinity results
  in
  Report.Table.print
    ~header:[ "policy"; "completion"; "vs best"; "imbalance"; "interconnect"; "local" ]
    (List.map
       (fun (name, result) ->
         [
           name;
           Report.Table.fmt_secs (completion result);
           Report.Table.fmt_ratio (completion result /. best);
           Report.Table.fmt_pct result.Engine.Result.imbalance;
           Report.Table.fmt_pct result.Engine.Result.interconnect_load;
           Report.Table.fmt_pct (Engine.Result.single result).Engine.Result.local_fraction;
         ])
       results);
  (* Every policy runs under the same, default, epoch cap. *)
  fail_if_capped (cfg Policies.Spec.round_4k) results

let compare_cmd =
  let doc = "Run one application under every NUMA policy and compare" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(ret (const compare_policies $ app_arg $ mode_arg $ threads_arg $ seed_arg))

let advise app mode seed =
  let r = Engine.Advisor.recommend ~seed ~mode app in
  Format.printf "%a@." Engine.Advisor.pp_recommendation r

let advise_cmd =
  let doc = "Profile an application and recommend a NUMA policy" in
  Cmd.v (Cmd.info "advise" ~doc) Term.(const advise $ app_arg $ mode_arg $ seed_arg)

let microsim machine =
  let topo = machine.Numa.Machine_desc.topology () in
  let freq = machine.Numa.Machine_desc.freq_hz in
  Format.printf "request-level memory simulation on %s@." machine.Numa.Machine_desc.name;
  List.iter
    (fun hops ->
      if hops <= Numa.Topology.diameter topo then begin
        let idle = Microsim.Memsim.latency_probe ~topo ~threads:1 ~hops () in
        let busy =
          Microsim.Memsim.latency_probe ~topo ~threads:(Numa.Topology.cpu_count topo) ~hops ()
        in
        Format.printf "%d hop(s): idle %.0f cycles, contended %.0f cycles@." hops
          (idle.Microsim.Memsim.mean_latency_ns *. freq /. 1e9)
          (busy.Microsim.Memsim.mean_latency_ns *. freq /. 1e9)
      end)
    [ 0; 1; 2 ];
  Format.printf "random-access controller efficiency: %.2f@."
    (Microsim.Memsim.random_access_efficiency ~topo ())

let microsim_cmd =
  let doc = "Run the request-level memory-system probes" in
  Cmd.v (Cmd.info "microsim" ~doc) Term.(const microsim $ machine_arg)

let main =
  let doc = "NUMA policies behind a hypervisor interface (EuroSys'17 reproduction)" in
  Cmd.group (Cmd.info "xen-numa-sim" ~doc)
    [ run_cmd; list_cmd; topo_cmd; compare_cmd; advise_cmd; microsim_cmd ]

let () = exit (Cmd.eval main)
