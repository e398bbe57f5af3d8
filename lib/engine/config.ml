type mode = Linux | Xen | Xen_plus

type vm_spec = {
  app : Workloads.App.t;
  threads : int;
  policy : Policies.Spec.t;
  home_nodes : Numa.Topology.node array option;
  use_mcs : bool;
  huge_pages : bool;
  superpages : bool;
  pt_walk : bool;
  replicate_pt : bool;
  pinned : bool;
}

let vm ?home_nodes ?(use_mcs = false) ?(huge_pages = false) ?(superpages = false)
    ?(pt_walk = false) ?(replicate_pt = false) ?(pinned = true) ?(threads = 48) ~policy app =
  if threads <= 0 then invalid_arg "Config.vm: threads must be positive";
  { app; threads; policy; home_nodes; use_mcs; huge_pages; superpages; pt_walk; replicate_pt;
    pinned }

let epoch_len = 0.1

type t = {
  mode : mode;
  vms : vm_spec list;
  seed : int;
  max_epochs : int;
  carrefour_config : Policies.Carrefour.User_component.config option;
  machine : Numa.Machine_desc.t;
  faults : Faults.Plan.t;
  observer : observer option;
  slo : (string * float) list;
  fast_forward : bool;
}

and observer = epoch_snapshot -> unit

and epoch_snapshot = {
  epoch_index : int;
  time : float;
  imbalance : float;
  max_controller_util : float;
  max_link_util : float;
  progress : (string * float) list;  (* app name, fraction of work done *)
  local_fraction : (string * float) list;
}

(* SLO objectives: which latency metric is budgeted.  [mean] is the
   work-weighted epoch mean; the percentiles are over the running
   vCPUs' per-epoch mean latencies. *)
let slo_metrics = [ "mean"; "p50"; "p95"; "p99"; "p999" ]

(* Parse a "METRIC=TARGET[,METRIC=TARGET...]" objective list (the
   --slo CLI argument).  The error message enumerates the valid
   metrics, mirroring the fault-plan parser. *)
let parse_slo spec =
  let parse_one part =
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "bad SLO %S; expected METRIC=TARGET (e.g. p99=300)" part)
    | Some i -> (
        let metric = String.trim (String.sub part 0 i) in
        let target = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
        if not (List.mem metric slo_metrics) then
          Error
            (Printf.sprintf "unknown SLO metric %S; valid metrics: %s" metric
               (String.concat ", " slo_metrics))
        else
          match float_of_string_opt target with
          | Some t when t > 0.0 -> Ok (metric, t)
          | _ -> Error (Printf.sprintf "bad SLO target %S; expected a positive number" target))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse_one part with Ok o -> go (o :: acc) rest | Error e -> Error e)
  in
  go []
    (List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' spec)))

(* Process-wide default for [fast_forward], mirroring
   [Pool.default_jobs]: lets the bench harness flip every run it
   spawns to the naive epoch loop without threading a flag through the
   experiment grids. *)
let default_fast_forward_flag = ref true
let set_default_fast_forward b = default_fast_forward_flag := b

let make ?(seed = 42) ?(max_epochs = 40_000) ?carrefour_config
    ?(machine = Numa.Machine_desc.amd48) ?(faults = Faults.Plan.empty) ?observer
    ?(slo = []) ?fast_forward ~mode vms =
  let fast_forward =
    match fast_forward with Some b -> b | None -> !default_fast_forward_flag
  in
  if vms = [] then invalid_arg "Config.make: no VMs";
  List.iter
    (fun (metric, target) ->
      if not (List.mem metric slo_metrics) then
        invalid_arg (Printf.sprintf "Config.make: unknown SLO metric %S" metric);
      if target <= 0.0 then invalid_arg "Config.make: SLO target must be positive")
    slo;
  (match Faults.Plan.validate faults with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Config.make: bad fault plan: " ^ msg));
  { mode; vms; seed; max_epochs; carrefour_config; machine; faults; observer; slo; fast_forward }

let mode_name = function Linux -> "linux" | Xen -> "xen" | Xen_plus -> "xen+"

(* The run's one identity: the trace stream label and the epoch-cap
   error both name a run by it.  Both records are destructured with
   every field named, so a new field does not compile until the label
   handles it.  An application is named by its catalogue name and a
   machine by its name; floats are rendered exactly.  Left out, because
   they change no event: [fast_forward] (replayed epochs are
   bit-identical to run ones, and tier1's fast-forward on/off trace
   [cmp] relies on the label not changing), [slo] (purely
   observational) and [observer] (a callback that only reads). *)
let vm_label
    { app; threads; policy; home_nodes; use_mcs; huge_pages; superpages; pt_walk; replicate_pt;
      pinned } =
  let flag on name = if on then "/" ^ name else "" in
  let homes =
    match home_nodes with
    | None -> ""
    | Some nodes ->
        "/homes=" ^ String.concat "." (Array.to_list (Array.map string_of_int nodes))
  in
  Printf.sprintf "%s/%s/t%d%s%s%s%s%s%s%s" app.Workloads.App.name (Policies.Spec.name policy)
    threads homes (flag (not pinned) "unpinned") (flag use_mcs "mcs") (flag huge_pages "hp")
    (flag superpages "sp") (flag pt_walk "ptw") (flag replicate_pt "rep")

let carrefour_label = function
  | None -> "default"
  | Some
      {
        Policies.Carrefour.User_component.mc_threshold;
        ic_threshold;
        dominant_fraction;
        min_accesses;
        migration_budget;
        max_hot_pages;
        enable_replication;
        replication_read_threshold;
        min_reader_nodes;
      } ->
      let f = Sim.Units.exact_float in
      Printf.sprintf
        "mc=%s,ic=%s,dominant=%s,min=%s,budget=%d,hot=%d,replicate=%b,read=%s,readers=%d"
        (f mc_threshold) (f ic_threshold) (f dominant_fraction) (f min_accesses) migration_budget
        max_hot_pages enable_replication (f replication_read_threshold) min_reader_nodes

let label
    { mode; vms; seed; max_epochs; carrefour_config; machine; faults; observer = _; slo = _;
      fast_forward = _ } =
  Printf.sprintf "%s|%s|seed=%d|max_epochs=%d|faults=%s|carrefour=%s|%s" (mode_name mode)
    machine.Numa.Machine_desc.name seed max_epochs (Faults.Plan.to_string faults)
    (carrefour_label carrefour_config)
    (String.concat "," (List.map vm_label vms))

(* Pick a page granularity keeping the largest app around <= 48k pages:
   small apps keep real 4 KiB pages, dc.B's 39 GB uses 1 MiB units. *)
let page_scale t =
  let max_fp =
    List.fold_left (fun acc vm -> max acc vm.app.Workloads.App.footprint_mb) 1 t.vms
  in
  let bytes = max_fp * 1024 * 1024 in
  let rec fit scale =
    if bytes / (4096 * scale) <= 49_152 || scale >= 1024 then scale else fit (scale * 2)
  in
  fit 1
