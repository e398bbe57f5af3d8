(* The Mitosis grid: the radix page-walk cost model and per-node
   page-table replication, on and off, across a placement that keeps
   walks local (round-1G: the PT node is also where most accesses
   land) and one that does not (first-touch + Carrefour: threads all
   over the machine touch pages whose tables sit on the first home
   node, and every Carrefour migration patches the mirrors).

   The expected shape, which test_experiments pins the core of:

   - walk-off columns are byte-identical to the pre-walk-model engine
     (the differential suite in test_engine pins this bit for bit);
   - walk-on without replication inflates the walk term wherever vCPUs
     run far from the page tables' home node — worst on the
     first-touch cells, whose threads span all eight nodes;
   - walk-on with replication collapses the walk term back to local
     pricing, at the cost of per-mirror write propagation on every P2M
     update (visible in the replica counters and propagation time);
   - replication without the walk model is the honesty column: all of
     the cost, none of the modelled benefit. *)

let apps = [ "kmeans"; "cg.C" ]
let policies = [ Policies.Spec.round_1g; Policies.Spec.first_touch_carrefour ]

let cells = List.concat_map (fun app -> List.map (fun p -> (app, p)) policies) apps

(* (pt_walk, replicate_pt) in fixed report order: baseline, honesty
   column (cost only), walk pricing, walk pricing + replication. *)
let variants = [ (false, false); (false, true); (true, false); (true, true) ]

let run_one ~seed ~app ~policy ~pt_walk ~replicate_pt =
  let vm = Engine.Config.vm ~pt_walk ~replicate_pt ~policy (Workloads.Catalogue.get app) in
  (* As in the hugepage grid, the pt-walk/replicate-pt toggles do NOT
     enter the seed label: all four variants of a cell replay the same
     workload stream, so the deltas are the walk pricing and the
     replication cost and nothing else.  Their trace streams stay
     distinct: the run's label (Engine.Config.label) carries the
     toggles as "/ptw" and "/rep". *)
  let key = app ^ "/" ^ Policies.Spec.name policy in
  let cfg =
    Engine.Config.make ~seed:(Runs.cell_seed ~base:seed key) ~mode:Engine.Config.Xen_plus [ vm ]
  in
  Runs.run_cell cfg

(* Results in [variants] order for each cell, in [cells] order. *)
let run ?(seed = 42) () =
  let tasks =
    List.concat_map
      (fun (app, policy) ->
        List.map
          (fun (pt_walk, replicate_pt) ->
            fun () -> run_one ~seed ~app ~policy ~pt_walk ~replicate_pt)
          variants)
      cells
  in
  let results = Engine.Pool.run_all (Array.of_list tasks) in
  let width = List.length variants in
  List.mapi (fun i _ -> Array.to_list (Array.sub results (i * width) width)) cells

let print ?seed () =
  let results = run ?seed () in
  Report.Table.print
    ~header:
      [
        "application"; "policy"; "base"; "rep only"; "walk"; "walk+rep"; "walk spdup";
        "cy/i walk"; "cy/i rep"; "mirror writes"; "shootdowns"; "prop s";
      ]
    (List.map2
       (fun (app, policy) row ->
         match List.map Engine.Result.single row with
         | [ base; rep; walk; walk_rep ] ->
             [
               app;
               Policies.Spec.name policy;
               Report.Table.fmt_secs base.Engine.Result.completion;
               Report.Table.fmt_secs rep.Engine.Result.completion;
               Report.Table.fmt_secs walk.Engine.Result.completion;
               Report.Table.fmt_secs walk_rep.Engine.Result.completion;
               Report.Table.fmt_ratio
                 (walk.Engine.Result.completion /. walk_rep.Engine.Result.completion);
               Printf.sprintf "%.4f" walk.Engine.Result.walk_cycles_per_instr;
               Printf.sprintf "%.4f" walk_rep.Engine.Result.walk_cycles_per_instr;
               string_of_int walk_rep.Engine.Result.pt_replica_updates;
               string_of_int walk_rep.Engine.Result.pt_replica_invalidations;
               Printf.sprintf "%.3f" walk_rep.Engine.Result.pt_replica_time;
             ]
         | _ -> assert false)
       cells results)
