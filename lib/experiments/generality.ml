type row = {
  app : string;
  machine : string;
  best : Policies.Spec.t;
  spread : float;  (* worst/best completion ratio over the policies *)
}

let apps = [ "cg.C"; "sp.C"; "kmeans" ]

let run ?(seed = 42) () =
  (* (machine x app) grid, one pool task per cell. *)
  let cells =
    List.concat_map
      (fun machine -> List.map (fun name -> (machine, name)) apps)
      Numa.Machine_desc.all
  in
  Engine.Pool.map_list
    (fun (machine, name) ->
      let app = Workloads.Catalogue.get name in
      let threads =
        Numa.Topology.cpu_count (machine.Numa.Machine_desc.topology ())
      in
      let times =
        List.filter_map
          (fun policy ->
            if Policies.Spec.runtime_selectable policy then begin
              let vm = Engine.Config.vm ~threads ~policy app in
              let cfg = Engine.Config.make ~seed ~machine ~mode:Engine.Config.Xen_plus [ vm ] in
              let result = Runs.run_cell cfg in
              Some (policy, (Engine.Result.single result).Engine.Result.completion)
            end
            else None)
          Policies.Spec.all
      in
      let best, best_t =
        List.fold_left
          (fun (bp, bt) (p, t) -> if t < bt then (p, t) else (bp, bt))
          (Policies.Spec.first_touch, Float.infinity)
          times
      in
      let worst = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 times in
      { app = name; machine = machine.Numa.Machine_desc.name; best; spread = worst /. best_t })
    cells

let print ?seed () =
  print_endline "Topology generality: policy winners on two different hosts";
  Report.Table.print
    ~header:[ "app"; "machine"; "best policy"; "worst/best" ]
    (List.map
       (fun r ->
         [ r.app; r.machine; Policies.Spec.name r.best; Report.Table.fmt_ratio r.spread ])
       (run ?seed ()));
  print_newline ()
