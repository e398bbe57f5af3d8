(* Benchmark harness: regenerates every table and figure of the paper
   and runs a bechamel microbenchmark suite over the core mechanisms.

   Usage: main.exe [all|tab1|tab2|tab3|tab4|fig1|fig2|fig5|fig6|fig7|
                    fig8|fig9|fig10|dma|batching|ablation|micro]
                   [--jobs N] [--json FILE] [--trace FILE]
                   [--trace-cap N] [--compare FILE] [--profile]

   --jobs N       run the experiment grids on N domains (default:
                  XEN_NUMA_JOBS or the host's recommended domain count)
   --json FILE    also write per-section wall-clock times, the bechamel
                  per-op medians and the metrics registry as JSON
                  (metrics collection is enabled for the run)
   --trace FILE   capture an event trace of every simulated run and
                  write the deterministic merge to FILE (JSONL, or
                  binary when FILE ends in .bin)
   --trace-cap N  per-stream trace ring capacity (default 4096)
   --compare FILE regression gate: read a previous --json report and
                  fail (exit 1) if any section shared with it runs
                  more than 25% slower now, or if a section's p99
                  latency regressed by more than 25% against a
                  reference that recorded one
   --profile      enable the runner phase profiler and print the span
                  table at the end (spans also land in the metrics
                  registry for --json)
   --no-fast-forward
                  disable the engine's steady-state fast-forward for
                  every run of the session (bit-identical either way;
                  the escape hatch and the A/B baseline) *)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks over the hot mechanisms                    *)
(* ------------------------------------------------------------------ *)

let bench_p2m () =
  let p2m = Xen.P2m.create ~frames:4096 () in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      let pfn = !i land 4095 in
      incr i;
      Xen.P2m.set p2m pfn ~mfn:pfn ~writable:true;
      ignore (Xen.P2m.get p2m pfn);
      ignore (Xen.P2m.invalidate p2m pfn))

let bench_buddy () =
  let buddy = Memory.Buddy.create ~base:0 ~frames:65536 in
  Bechamel.Staged.stage (fun () ->
      match Memory.Buddy.alloc buddy ~order:3 with
      | Some base -> Memory.Buddy.free buddy ~base ~order:3
      | None -> assert false)

let bench_pv_queue () =
  let queue =
    Guest.Pv_queue.create ~partitions:4 ~capacity:128 ~frames:0x10000 ~flush:(fun _ -> 0.0) ()
  in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      Guest.Pv_queue.record queue (Guest.Pv_queue.Release (!i land 0xffff)))

let bench_route () =
  let topo = Numa.Amd48.topology () in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      Numa.Topology.route topo (!i land 7) ((!i lsr 3) land 7))

let bench_cpus_of_node_array () =
  let topo = Numa.Amd48.topology () in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      ignore (Numa.Topology.cpu_array_of_node topo (!i land 7)))

let bench_pool_fanout () =
  (* Fixed 32-task fan-out over 2 workers: the pool's scheduling
     overhead per batch, not the tasks' cost. *)
  let tasks = Array.init 32 (fun i () -> i * i) in
  Bechamel.Staged.stage (fun () -> ignore (Engine.Pool.run_all ~jobs:2 tasks))

let bench_pool_dispatch () =
  (* 256 trivial tasks on one worker: the pure per-task dispatch cost
     of the atomic-cursor claim path, no spawn or join in the loop. *)
  let tasks = Array.init 256 (fun i () -> i) in
  Bechamel.Staged.stage (fun () -> ignore (Engine.Pool.run_all ~jobs:1 tasks))

let bench_counters () =
  let counters = Numa.Counters.create (Numa.Amd48.topology ()) in
  let i = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr i;
      Numa.Counters.record_accesses counters ~src:(!i land 7) ~dst:((!i lsr 3) land 7)
        ~count:100.0 ~bytes_per_access:64.0)

let bench_carrefour_decide () =
  let rng = Sim.Rng.create ~seed:1 in
  let hot =
    List.init 128 (fun i ->
        {
          Policies.Carrefour.pfn = i;
          node_accesses = Array.init 8 (fun n -> if n = 0 then 100.0 else 5.0);
          read_fraction = 0.5;
        })
  in
  let metrics =
    {
      Policies.Carrefour.System_component.controller_util =
        [| 0.9; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1 |];
      max_link_util = 0.5;
      imbalance = 2.0;
      hot_pages = Policies.Carrefour.hot_of_samples hot;
    }
  in
  let config = Policies.Carrefour.User_component.default_config in
  let workspace = Policies.Carrefour.workspace () in
  Bechamel.Staged.stage (fun () ->
      Policies.Carrefour.User_component.decide config ~workspace ~rng ~metrics ~node_of:(fun _ ->
          0))

let bench_carrefour_decide_budget () =
  (* The Carrefour workload's steady state: the interconnect saturates
     (locality only), most of a 4096-page table clears the heat
     threshold, one row in ten has a single remote reader, and the
     budget admits 40 of those ~410 candidates. *)
  let rng = Sim.Rng.create ~seed:1 in
  let hot =
    List.init 4096 (fun i ->
        let heat = 100.0 +. float_of_int (i * 7919 mod 997) in
        let node_accesses =
          match i mod 10 with
          | 0 -> Array.init 8 (fun n -> if n = 1 + (i mod 7) then heat else 0.0)
          | 9 -> Array.make 8 0.5
          | _ -> Array.make 8 (heat /. 8.0)
        in
        { Policies.Carrefour.pfn = i; node_accesses; read_fraction = 0.5 })
  in
  let metrics =
    {
      Policies.Carrefour.System_component.controller_util = Array.make 8 0.2;
      max_link_util = 0.9;
      imbalance = 0.0;
      hot_pages = Policies.Carrefour.hot_of_samples hot;
    }
  in
  let config =
    {
      Policies.Carrefour.User_component.default_config with
      Policies.Carrefour.User_component.migration_budget = 40;
    }
  in
  let workspace = Policies.Carrefour.workspace () in
  Bechamel.Staged.stage (fun () ->
      Policies.Carrefour.User_component.decide config ~workspace ~rng ~metrics ~node_of:(fun _ ->
          0))

let bench_carrefour_decay () =
  (* One heat-table decay over 4096 live rows of 8 nodes.  The rows
     start at 2^900 accesses, so they live ~900 periods; the table is
     refilled when they are gone, an amortised ~5 samples per call. *)
  let system = Xen.System.create ~page_scale:262144 (Numa.Amd48.topology ()) in
  let domain =
    Xen.System.create_domain system ~name:"decay" ~kind:Xen.Domain.DomU ~vcpus:6
      ~mem_bytes:(4 * 1024 * 1024 * 1024) ()
  in
  let sys = Policies.Carrefour.System_component.create system domain in
  let heat = Float.ldexp 1.0 900 in
  let fill () =
    for pfn = 0 to 4095 do
      let node_accesses = Array.init 8 (fun n -> if n = pfn land 7 then heat else heat /. 64.0) in
      Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses ~read_fraction:0.5
    done
  in
  Bechamel.Staged.stage (fun () ->
      if Policies.Carrefour.System_component.tracked_pages sys = 0 then fill ();
      Policies.Carrefour.System_component.begin_epoch sys)

let bench_promote_scan () =
  (* One promotion scan over 512 extents of 32 frames, none of them
     promotable: each has a hole, a frame on a second node or a frame
     of differing writability at a rotating offset, or is scattered on
     a node with no free 2 MiB block left.  The scan finds nothing, so
     every call examines all 512 extents. *)
  let system = Xen.System.create ~page_scale:16 (Numa.Amd48.topology ()) in
  let domain =
    Xen.System.create_domain system ~name:"scan" ~kind:Xen.Domain.DomU ~vcpus:6
      ~mem_bytes:(512 * 2 * 1024 * 1024) ()
  in
  let manager =
    Policies.Manager.attach ~superpages:true system domain ~boot:Policies.Spec.first_touch
      ~rng:(Sim.Rng.create ~seed:1)
  in
  let machine = system.Xen.System.machine and p2m = domain.Xen.Domain.p2m in
  let sp = Xen.P2m.sp_frames p2m and order = Memory.Machine.order_2m machine in
  let starved = 7 in
  let frame node = Option.get (Memory.Machine.alloc_frame machine ~node) in
  let block node =
    let b = Option.get (Memory.Machine.alloc_on machine ~node ~order) in
    Memory.Machine.split_block machine ~mfn:b ~order;
    b
  in
  for e = 0 to 511 do
    let base = e * sp and node = e mod 7 and at = e * 7 mod sp in
    let set i ~mfn ~writable = Xen.P2m.set p2m (base + i) ~mfn ~writable in
    match e mod 4 with
    | 0 ->
        let b = block node in
        for i = 0 to sp - 1 do
          if i <> at then set i ~mfn:(b + i) ~writable:true
        done
    | 1 ->
        let b = block node in
        for i = 0 to sp - 1 do
          set i ~mfn:(if i = at then frame ((node + 1) mod 7) else b + i) ~writable:true
        done
    | 2 ->
        let b = block node in
        for i = 0 to sp - 1 do
          set i ~mfn:(b + i) ~writable:(i <> at)
        done
    | _ ->
        for i = sp - 1 downto 0 do
          set i ~mfn:(frame starved) ~writable:true
        done
  done;
  while Memory.Machine.alloc_on machine ~node:starved ~order <> None do
    ()
  done;
  Bechamel.Staged.stage (fun () -> Policies.Manager.promote_scan manager)

let bench_zipf () =
  let rng = Sim.Rng.create ~seed:2 in
  Bechamel.Staged.stage (fun () -> Sim.Rng.zipf rng ~n:32768 ~s:0.9)

let bench_eventq () =
  let q = Sim.Eventq.create () in
  Bechamel.Staged.stage (fun () ->
      Sim.Eventq.schedule_after q ~delay:1.0 ();
      ignore (Sim.Eventq.next q))

let bench_ff_guard () =
  (* The fast-forward's per-epoch quiescence check over a 48-thread
     capture: the fixed per-VM cost every replayed epoch pays before
     it may skip the kernels. *)
  let threads = 48 in
  let finish = Array.make threads (-1.0) in
  let doit = Array.make threads 1e9 in
  let remaining = Array.make threads 1e12 in
  let cap = Array.make threads 1e9 in
  let final = Array.make threads 1e9 in
  Bechamel.Staged.stage (fun () ->
      ignore (Engine.Runner.replay_guard ~finish ~doit ~remaining ~cap ~final))

let bench_ff_replay () =
  (* The runner's own replay stage for one armed 48-vCPU VM on the
     8-node machine: work retirement, disk DMA, the counter commit,
     end-of-epoch accounting, the latency reduction with its run-length
     histogram fill, and the manager tick — everything a replayed epoch
     still does, with the O(threads x nodes) kernels skipped. *)
  let app =
    match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false
  in
  let vm = Engine.Config.vm ~threads:48 ~policy:Policies.Spec.round_4k app in
  Bechamel.Staged.stage
    (Engine.Runner.replay_stage (Engine.Config.make ~seed:1 ~mode:Engine.Config.Xen_plus [ vm ]))

let bench_engine_epoch () =
  (* One full small run: the per-epoch cost of the whole engine. *)
  let app =
    match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false
  in
  Bechamel.Staged.stage (fun () ->
      let vm = Engine.Config.vm ~threads:8 ~policy:Policies.Spec.round_4k app in
      let cfg = Engine.Config.make ~seed:1 ~max_epochs:10 ~mode:Engine.Config.Linux [ vm ] in
      ignore (Engine.Runner.run cfg))

let micro_tests () =
  let open Bechamel in
  [
    Test.make ~name:"p2m set/get/invalidate" (bench_p2m ());
    Test.make ~name:"buddy alloc+free order3" (bench_buddy ());
    Test.make ~name:"pv_queue record(+flush)" (bench_pv_queue ());
    Test.make ~name:"topology route" (bench_route ());
    Test.make ~name:"cpus_of_node (array)" (bench_cpus_of_node_array ());
    Test.make ~name:"pool fanout 32x2" (bench_pool_fanout ());
    Test.make ~name:"pool dispatch 256x1" (bench_pool_dispatch ());
    Test.make ~name:"counters record" (bench_counters ());
    Test.make ~name:"carrefour decide (128 hot)" (bench_carrefour_decide ());
    Test.make ~name:"carrefour decide (4096 rows, budget 40)" (bench_carrefour_decide_budget ());
    Test.make ~name:"carrefour decay (4096 rows)" (bench_carrefour_decay ());
    Test.make ~name:"promote scan (512 mixed extents)" (bench_promote_scan ());
    Test.make ~name:"rng zipf 32k" (bench_zipf ());
    Test.make ~name:"eventq schedule+next" (bench_eventq ());
    Test.make ~name:"quiescence check" (bench_ff_guard ());
    Test.make ~name:"epoch delta replay" (bench_ff_replay ());
    Test.make ~name:"engine 10-epoch run" (bench_engine_epoch ());
  ]

(* Per-op medians of the last micro run, for the --json report. *)
let micro_estimates : (string * float) list ref = ref []

let run_micro () =
  section "Microbenchmarks (bechamel)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  micro_estimates := [];
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let estimate = Analyze.one ols Toolkit.Instance.monotonic_clock result in
          match Analyze.OLS.estimates estimate with
          | Some [ t ] ->
              micro_estimates := (Test.Elt.name elt, t) :: !micro_estimates;
              Printf.printf "%-28s %12.1f ns/op\n" (Test.Elt.name elt) t
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    (micro_tests ());
  micro_estimates := List.rev !micro_estimates

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                 *)
(* ------------------------------------------------------------------ *)

(* A fault grid whose run hit the epoch cap has not shown that the
   run completes: fail the bench right after the section's output. *)
let fail_if_capped = function
  | [] -> ()
  | capped ->
      Printf.eprintf "bench: %d run(s) hit the epoch cap: %s\n" (List.length capped)
        (String.concat "; " capped);
      exit 1

let sections : (string * (unit -> unit)) list =
  [
    ("tab2", fun () -> section "Table 2"; Experiments.Single_vm.print_tab2 ());
    ("tab3", fun () -> section "Table 3"; Experiments.Micro.print_tab3 ());
    ("fig5", fun () -> section "Figure 5"; Experiments.Micro.print_fig5 ());
    ("dma", fun () -> section "DMA paths (Sections 2.2.2, 5.3.1, 4.4.1)"; Experiments.Micro.print_dma ());
    ( "batching",
      fun () -> section "Hypercall batching (Sections 4.2.3-4.2.4)"; Experiments.Micro.print_batching () );
    ("tab1", fun () -> section "Table 1"; Experiments.Single_vm.print_tab1 ());
    ("fig1", fun () -> section "Figure 1"; Experiments.Single_vm.print_fig1 ());
    ("fig2", fun () -> section "Figure 2"; Experiments.Single_vm.print_fig2 ());
    ("fig6", fun () -> section "Figure 6"; Experiments.Single_vm.print_fig6 ());
    ("fig7", fun () -> section "Figure 7"; Experiments.Single_vm.print_fig7 ());
    ("tab4", fun () -> section "Table 4"; Experiments.Single_vm.print_tab4 ());
    ("fig8", fun () -> section "Figure 8"; Experiments.Multi_vm.print_fig8 ());
    ("fig9", fun () -> section "Figure 9"; Experiments.Multi_vm.print_fig9 ());
    ("fig10", fun () -> section "Figure 10"; Experiments.Single_vm.print_fig10 ());
    ( "ablation",
      fun () ->
        section "Ablations";
        Experiments.Ablation.print_replay_direction ();
        Experiments.Ablation.print_mcs ();
        Experiments.Ablation.print_round1g_fragmentation ();
        Experiments.Ablation.print_replication ();
        Experiments.Ablation.print_huge_pages ();
        Experiments.Ablation.print_carrefour_heuristics () );
    ( "motivation",
      fun () -> section "Motivation (Section 1)"; Experiments.Motivation.print () );
    ( "generality",
      fun () -> section "Topology generality"; Experiments.Generality.print () );
    ( "chaos",
      fun () ->
        section "Chaos (fault injection and graceful degradation)";
        fail_if_capped (Experiments.Chaos.print ()) );
    ( "hugepage",
      fun () ->
        section "Hugepage (2 MiB P2M superpages on/off)";
        Experiments.Hugepage.print () );
    ( "mitosis",
      fun () ->
        section "Mitosis (radix page-walk pricing and PT replication)";
        Experiments.Mitosis.print () );
    ( "ras",
      fun () ->
        section "Memory RAS (ECC errors and node failure)";
        fail_if_capped (Experiments.Ras.print ()) );
    ("micro", run_micro);
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Revision of the working tree, for provenance in the JSON report.
   Reads .git directly (no subprocess): HEAD, the ref file it points
   to, or packed-refs.  XEN_NUMA_GIT_REV overrides (CI checkouts). *)
let git_rev () =
  match Sys.getenv_opt "XEN_NUMA_GIT_REV" with
  | Some rev when rev <> "" -> rev
  | Some _ | None -> (
      let first_line path =
        try
          let ic = open_in path in
          let line = try String.trim (input_line ic) with End_of_file -> "" in
          close_in ic;
          if line = "" then None else Some line
        with Sys_error _ -> None
      in
      let packed_ref git_dir refname =
        try
          let ic = open_in (Filename.concat git_dir "packed-refs") in
          let found = ref None in
          (try
             while !found = None do
               let line = input_line ic in
               match String.index_opt line ' ' with
               | Some i when String.sub line (i + 1) (String.length line - i - 1) = refname ->
                   found := Some (String.sub line 0 i)
               | _ -> ()
             done
           with End_of_file -> ());
          close_in ic;
          !found
        with Sys_error _ -> None
      in
      let rec from_dir dir =
        let git_dir = Filename.concat dir ".git" in
        match first_line (Filename.concat git_dir "HEAD") with
        | Some line ->
            if String.length line > 5 && String.sub line 0 5 = "ref: " then begin
              let refname = String.trim (String.sub line 5 (String.length line - 5)) in
              match first_line (Filename.concat git_dir refname) with
              | Some rev -> Some rev
              | None -> packed_ref git_dir refname
            end
            else Some line
        | None ->
            let parent = Filename.dirname dir in
            if parent = dir then None else from_dir parent
      in
      match from_dir (Sys.getcwd ()) with Some rev -> rev | None -> "unknown")

(* Per-section p99 latency: the runner merges every VM's latency
   histogram into the "engine.vm.latency_cycles" metric, so the p99 of
   the section is the p99 of the histogram delta across it (Histogram
   diff of snapshots taken before and after the section ran).  None
   when metrics are off or the section ran no epochs. *)
let section_p99 ~before =
  match Obs.Metrics.histogram_copy "engine.vm.latency_cycles" with
  | None -> None
  | Some now ->
      let window =
        match before with None -> now | Some b -> Sim.Stats.Histogram.diff now b
      in
      if Sim.Stats.Histogram.count window = 0 then None
      else Some (Sim.Stats.Histogram.percentile window 99.0)

let write_json file ~jobs ~timings ~total =
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write --json output: %s\n" msg;
      exit 1
  in
  (* Oversubscription marker: with more worker domains than host
     cores, wall-clock numbers measure scheduler contention as much as
     the code, so flag the report (and warn) instead of letting a
     later --compare read noise as regression. *)
  let host_cores = Domain.recommended_domain_count () in
  let oversubscribed = jobs > host_cores in
  if oversubscribed then
    Printf.eprintf
      "warning: --jobs %d exceeds the host's %d cores; wall-clock timings are \
       oversubscribed and the report is marked \"oversubscribed\": true\n"
      jobs host_cores;
  let entry (name, seconds, p99) =
    match p99 with
    | None -> Printf.sprintf "    {\"name\": \"%s\", \"wall_s\": %.3f}" (Obs.Json.escape name) seconds
    | Some p ->
        Printf.sprintf "    {\"name\": \"%s\", \"wall_s\": %.3f, \"lat_p99\": %.6g}"
          (Obs.Json.escape name) seconds p
  in
  let micro (name, ns) = Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %.1f}" (Obs.Json.escape name) ns in
  let metrics = List.map (fun line -> "    " ^ line) (Obs.Metrics.to_json_entries ()) in
  Printf.fprintf oc
    "{\n\
    \  \"git_rev\": \"%s\",\n\
    \  \"jobs\": %d,\n\
    \  \"host_cores\": %d,\n%s\
    \  \"total_wall_s\": %.3f,\n\
    \  \"sections\": [\n%s\n  ],\n\
    \  \"micro\": [\n%s\n  ],\n\
    \  \"metrics\": [\n%s\n  ]\n\
     }\n"
    (Obs.Json.escape (git_rev ()))
    jobs
    host_cores
    (if oversubscribed then "  \"oversubscribed\": true,\n" else "")
    total
    (String.concat ",\n" (List.map entry timings))
    (String.concat ",\n" (List.map micro !micro_estimates))
    (String.concat ",\n" metrics);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

(* --compare: regression gate against a previously committed --json
   report.  Every section of this run that the reference also timed
   gets a delta line; a section more than [threshold] slower than the
   reference fails the whole run (exit 1).  Sections absent from the
   reference (new experiments) pass trivially.  When the reference was
   recorded at a different --jobs setting the table is printed for
   information only: domain-count overhead dominates wall-clock on
   small hosts, so cross-jobs deltas say nothing about the code.

   The same threshold gates the per-section p99 latency when BOTH
   sides recorded one ("lat_p99" in the sections array): unlike
   wall-clock, p99 is deterministic for a given seed, so a genuine
   regression cannot hide behind host noise.  References from before
   the field existed gate on wall-clock only. *)
let compare_threshold = 0.25

let compare_report file ~jobs ~timings =
  let text =
    try
      let ic = open_in file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "cannot read --compare reference: %s\n" msg;
      exit 1
  in
  let old =
    match Obs.Json.of_string_opt text with
    | Some j -> j
    | None ->
        Printf.eprintf "--compare: %s is not valid JSON\n" file;
        exit 1
  in
  let old_sections =
    match Obs.Json.member "sections" old with
    | Some (Obs.Json.List entries) ->
        List.filter_map
          (fun e ->
            match (Obs.Json.member "name" e, Obs.Json.member "wall_s" e) with
            | Some name, Some wall -> (
                match (Obs.Json.to_string name, Obs.Json.to_float wall) with
                | Some n, Some w ->
                    let p99 = Option.bind (Obs.Json.member "lat_p99" e) Obs.Json.to_float in
                    Some (n, (w, p99))
                | _ -> None)
            | _ -> None)
          entries
    | Some _ | None ->
        Printf.eprintf "--compare: %s has no sections array\n" file;
        exit 1
  in
  let old_rev =
    match Option.bind (Obs.Json.member "git_rev" old) Obs.Json.to_string with
    | Some rev -> rev
    | None -> "unknown"
  in
  let old_jobs = Option.bind (Obs.Json.member "jobs" old) Obs.Json.to_int in
  let gating = match old_jobs with Some j -> j = jobs | None -> true in
  Printf.printf "\nComparison vs %s (rev %s)\n" file old_rev;
  Printf.printf "%-12s %10s %10s %9s %9s %11s\n" "section" "ref (s)" "now (s)" "delta" "speedup"
    "p99 delta";
  let regressed = ref [] in
  let ref_sum = ref 0.0 and now_sum = ref 0.0 in
  List.iter
    (fun (name, now, now_p99) ->
      (* The p99 column gates only when both runs recorded one: a
         reference written before the field existed (or a metrics-off
         run) stays wall-clock-only. *)
      let p99_cell =
        match (List.assoc_opt name old_sections, now_p99) with
        | Some (_, Some ref_p99), Some p99 when ref_p99 > 0.0 ->
            let d = (p99 -. ref_p99) /. ref_p99 in
            if d > compare_threshold then
              regressed := (name ^ " (p99 latency)", d) :: !regressed;
            Printf.sprintf "%+.1f%%" (100.0 *. d)
        | _ -> "-"
      in
      match List.assoc_opt name old_sections with
      | None -> Printf.printf "%-12s %10s %10.2f %9s %9s %11s\n" name "-" now "new" "-" p99_cell
      | Some (before, _) when before <= 0.0 ->
          Printf.printf "%-12s %10.2f %10.2f %9s %9s %11s\n" name before now "-" "-" p99_cell
      | Some (before, _) ->
          let delta = (now -. before) /. before in
          (* speedup = ref/now: >1.00x is faster than the reference. *)
          let speedup = if now > 0.0 then before /. now else Float.infinity in
          ref_sum := !ref_sum +. before;
          now_sum := !now_sum +. now;
          Printf.printf "%-12s %10.2f %10.2f %+8.1f%% %8.2fx %11s\n" name before now
            (100.0 *. delta) speedup p99_cell;
          if delta > compare_threshold then regressed := (name, delta) :: !regressed)
    timings;
  (* Sections present in only one of the two files are informational:
     a reference from before a section existed (or a run of a subset)
     must not fail the gate. *)
  List.iter
    (fun (name, (before, _)) ->
      if not (List.exists (fun (n, _, _) -> n = name) timings) then
        Printf.printf "%-12s %10.2f %10s %9s %9s\n" name before "-" "ref-only" "-")
    old_sections;
  if !now_sum > 0.0 && !ref_sum > 0.0 then
    Printf.printf "%-12s %10.2f %10.2f %9s %8.2fx\n" "(shared)" !ref_sum !now_sum "-"
      (!ref_sum /. !now_sum);
  if not gating then
    Printf.printf "reference used --jobs %d, this run --jobs %d: informational only, not gated\n"
      (Option.value old_jobs ~default:0) jobs
  else
  match List.rev !regressed with
  | [] ->
      Printf.printf "no section regressed more than %.0f%% (wall-clock or p99 latency)\n"
        (100.0 *. compare_threshold)
  | bad ->
      List.iter
        (fun (name, delta) ->
          Printf.eprintf "REGRESSION: %s is %.1f%% slower than %s (limit %.0f%%)\n" name
            (100.0 *. delta) old_rev
            (100.0 *. compare_threshold))
        bad;
      exit 1

let usage () =
  Printf.eprintf
    "usage: main.exe [sections...] [--jobs N] [--json FILE] [--trace FILE]\n\
    \       [--trace-cap N] [--compare FILE] [--profile] [--no-fast-forward]\n\
     available sections: all %s\n"
    (String.concat " " (List.map fst sections));
  exit 1

type opts = {
  mutable names : string list;
  mutable jobs : int option;
  mutable json : string option;
  mutable trace : string option;
  mutable trace_cap : int;
  mutable compare_to : string option;
  mutable profile : bool;
  mutable no_fast_forward : bool;
}

let () =
  let o =
    { names = []; jobs = None; json = None; trace = None; trace_cap = 4096;
      compare_to = None; profile = false; no_fast_forward = false }
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            o.jobs <- Some j;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            usage ())
    | "--json" :: file :: rest ->
        o.json <- Some file;
        parse rest
    | "--compare" :: file :: rest ->
        o.compare_to <- Some file;
        parse rest
    | "--trace" :: file :: rest ->
        o.trace <- Some file;
        parse rest
    | "--profile" :: rest ->
        o.profile <- true;
        parse rest
    | "--no-fast-forward" :: rest ->
        o.no_fast_forward <- true;
        parse rest
    | "--trace-cap" :: n :: rest -> (
        match int_of_string_opt n with
        | Some c when c >= 1 ->
            o.trace_cap <- c;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--trace-cap expects a positive integer, got %S\n" n;
            usage ())
    | ("--jobs" | "--json" | "--trace" | "--trace-cap" | "--compare"
      | "--help" | "-h") :: _ ->
        usage ()
    | name :: rest ->
        o.names <- name :: o.names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Process-wide default, like set_default_jobs: every run the
     experiment grids spawn sees it without threading a flag through
     them.  The fast-forward is bit-identical either way, so this only
     trades speed for an A/B check. *)
  if o.no_fast_forward then Engine.Config.set_default_fast_forward false;
  (match o.jobs with Some n -> Engine.Pool.set_default_jobs n | None -> ());
  let requested =
    match List.rev o.names with [] | [ "all" ] -> List.map fst sections | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S\n" name;
        usage ()
      end)
    requested;
  (* --json reports the metrics registry, so collection goes on for the
     whole run; --compare needs it too (the per-section p99 gate reads
     the engine.vm.latency_cycles histogram); --trace installs the
     capture session. *)
  if o.json <> None || o.compare_to <> None then Obs.Metrics.set_enabled true;
  if o.profile then begin
    Obs.Profile.reset ();
    Obs.Profile.set_enabled true
  end;
  let session =
    match o.trace with
    | None -> None
    | Some _ ->
        let s = Obs.Trace.create ~capacity:o.trace_cap () in
        Obs.Trace.install s;
        Some s
  in
  let t_start = Unix.gettimeofday () in
  let timings =
    List.map
      (fun name ->
        let f = List.assoc name sections in
        let before = Obs.Metrics.histogram_copy "engine.vm.latency_cycles" in
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        (name, dt, section_p99 ~before))
      requested
  in
  let total = Unix.gettimeofday () -. t_start in
  Printf.printf "\n%-12s %10s %10s\n" "section" "wall (s)" "p99 (cy)";
  List.iter
    (fun (name, dt, p99) ->
      Printf.printf "%-12s %10.2f %10s\n" name dt
        (match p99 with Some p -> Printf.sprintf "%.0f" p | None -> "-"))
    timings;
  Printf.printf "%-12s %10.2f  (%d jobs)\n" "total" total (Engine.Pool.default_jobs ());
  if o.profile then begin
    Obs.Profile.commit_metrics ();
    print_newline ();
    print_string (Obs.Profile.render ())
  end;
  (match (session, o.trace) with
  | Some s, Some file ->
      Obs.Trace.commit_metrics s;
      Obs.Trace.write_file s file;
      Obs.Trace.uninstall ();
      Printf.printf "wrote %s (%d streams)\n" file (Obs.Trace.stream_count s)
  | _ -> ());
  (match o.json with
  | Some file -> write_json file ~jobs:(Engine.Pool.default_jobs ()) ~timings ~total
  | None -> ());
  match o.compare_to with
  | Some file -> compare_report file ~jobs:(Engine.Pool.default_jobs ()) ~timings
  | None -> ()
