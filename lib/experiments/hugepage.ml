(* The hugepage grid: 2 MiB P2M superpages on and off, across the
   three boot placements, for two TLB-sensitive applications whose
   footprints keep the simulated page scale small enough that a 2 MiB
   extent still spans many simulated pages (kmeans: scale 32 ->
   16-frame extents; cg.C: scale 8 -> 64-frame extents).

   The expected shape, which test_experiments pins:

   - round-1G keeps its boot-time superpages for the whole run, so the
     on-column beats the off-column by the nested-paging TLB gap;
   - round-4K interleaves frames per-page, so extents are never
     single-node contiguous and superpages never form (on == off);
   - first-touch boots round-1G (to have something to lose), then the
     policy switch releases the guest free list, splintering every
     extent; the promotion scan claws a few back, but the TLB win is
     mostly gone and the splinter counters show why. *)

let apps = [ "kmeans"; "cg.C" ]

let policies =
  [ Policies.Spec.round_1g; Policies.Spec.round_4k; Policies.Spec.first_touch ]

let cells = List.concat_map (fun app -> List.map (fun p -> (app, p)) policies) apps

let run_one ~seed ~app ~policy ~superpages =
  let vm = Engine.Config.vm ~superpages ~policy (Workloads.Catalogue.get app) in
  (* The cell's stream is a pure function of (app, policy, base seed).
     The superpage toggle deliberately does NOT enter the seed label —
     the on/off pair of a cell replays the same workload stream, so the
     completion delta is the superpage effect and nothing else.  Their
     trace streams stay distinct: the run's label
     (Engine.Config.label) carries the toggle as "/sp". *)
  let key = app ^ "/" ^ Policies.Spec.name policy in
  let cfg =
    Engine.Config.make ~seed:(Runs.cell_seed ~base:seed key) ~mode:Engine.Config.Xen_plus [ vm ]
  in
  Runs.run_cell cfg

(* (off, on) result pairs in [cells] order. *)
let run ?(seed = 42) () =
  let tasks =
    List.concat_map
      (fun (app, policy) ->
        [
          (fun () -> run_one ~seed ~app ~policy ~superpages:false);
          (fun () -> run_one ~seed ~app ~policy ~superpages:true);
        ])
      cells
  in
  let results = Engine.Pool.run_all (Array.of_list tasks) in
  List.mapi (fun i _ -> (results.(2 * i), results.((2 * i) + 1))) cells

let print ?seed () =
  let results = run ?seed () in
  Report.Table.print
    ~header:
      [
        "application"; "policy"; "sp off"; "sp on"; "speedup"; "sp share"; "splinters";
        "promotes"; "by copy";
      ]
    (List.map2
       (fun (app, policy) ((off : Engine.Result.t), (on : Engine.Result.t)) ->
         let voff = Engine.Result.single off and von = Engine.Result.single on in
         [
           app;
           Policies.Spec.name policy;
           Report.Table.fmt_secs voff.Engine.Result.completion;
           Report.Table.fmt_secs von.Engine.Result.completion;
           Report.Table.fmt_ratio
             (voff.Engine.Result.completion /. von.Engine.Result.completion);
           Report.Table.fmt_pct von.Engine.Result.superpage_fraction;
           string_of_int von.Engine.Result.splinters;
           string_of_int von.Engine.Result.promotes;
           string_of_int von.Engine.Result.superpage_migrates;
         ])
       cells results)
