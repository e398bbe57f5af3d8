type cell = { label : string; config : Engine.Config.t }

let workloads = [ "static"; "carrefour"; "faults"; "consolidation" ]

let usage = "valid workloads: " ^ String.concat ", " workloads

let cell_seed ~base label =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF) label;
  (base * 0x9E3779B1 lxor !h) land 0x3FFFFFFF

let app name =
  match Workloads.Catalogue.find name with
  | Some a -> a
  | None -> invalid_arg ("benchmark: unknown app " ^ name)

let make ~base ~label ?faults ?carrefour_config ~mode vms =
  let seed = cell_seed ~base label in
  { label; config = Engine.Config.make ~seed ?faults ?carrefour_config ~mode vms }

(* One VM per cell.  [mitosis] turns on the whole P2M/page-table stack
   at once (superpages, radix walk pricing, replicated page tables), so
   one cell per app exercises every read path of Xen.P2m and Xen.Pt. *)
let single ~base ?(tag = "") ?threads ?faults ?carrefour_config (mode, policy, mitosis) a =
  let label =
    Printf.sprintf "%s|%s|%s%s%s" (Engine.Config.mode_name mode) a.Workloads.App.name
      (Policies.Spec.name policy)
      (if mitosis then "|sp+ptw+rep" else "")
      tag
  in
  let vm =
    Engine.Config.vm ?threads ~superpages:mitosis ~pt_walk:mitosis ~replicate_pt:mitosis ~policy a
  in
  make ~base ~label ?faults ?carrefour_config ~mode [ vm ]

let grid ~base variants = List.concat_map (fun a -> List.map (fun v -> single ~base v a) variants)

open Policies.Spec

let static ~base =
  grid ~base
    Engine.Config.
      [
        (Linux, first_touch, false);
        (Linux, round_4k, false);
        (Xen, first_touch, false);
        (Xen, round_1g, false);
        (Xen_plus, round_4k, false);
        (Xen_plus, round_1g, true);
      ]
    Workloads.Catalogue.all

let carrefour ~base =
  grid ~base
    Engine.Config.
      [
        (Linux, first_touch_carrefour, false);
        (Linux, round_4k_carrefour, false);
        (Xen_plus, first_touch_carrefour, false);
        (Xen_plus, round_4k_carrefour, true);
      ]
    Workloads.Catalogue.all

let fault_apps =
  [ "wrmem"; "swaptions"; "cg.C"; "kmeans"; "wc"; "ft.C"; "bodytrack"; "sp.C"; "wr" ]

let fault_plans =
  [
    "alloc=0.15,migrate=0.5";
    "batch-loss=0.5,op-drop=0.05";
    "stall=0.02,hypercall=0.2";
    "ecc-ce=0.9";
    "ecc-ue=0.05";
    "node_fail=1.0@50-150";
  ]

(* The chaos and RAS grids' eager thresholds: stock Carrefour rarely
   fires on these apps, and a fault plan that never reaches the
   migration path would leave the manager's retry and drain paths
   idle. *)
let eager_carrefour =
  {
    Policies.Carrefour.User_component.default_config with
    Policies.Carrefour.User_component.mc_threshold = 0.30;
    ic_threshold = 0.05;
    dominant_fraction = 0.60;
    min_accesses = 2.0;
  }

let faults ~base =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun plan ->
          let faults = Faults.Plan.of_string_exn plan in
          List.map
            (fun policy ->
              single ~base ~tag:("|t16|" ^ plan) ~threads:16 ~faults
                ~carrefour_config:eager_carrefour
                (Engine.Config.Xen_plus, policy, false)
                (app name))
            [ first_touch; first_touch_carrefour ])
        fault_plans)
    fault_apps

(* Figure 8's bodytrack + streamcluster: the one pair of two apps small
   enough to be simulated at 4 KiB granularity. *)
let anchor = ("bodytrack", "streamcluster")

(* One fixed cycle through the whole catalogue: the anchor, then the 15
   largest-footprint apps and the 12 other small ones, each group in
   footprint order, interleaved large, small, large, small, ..., with
   consecutive apps paired and the last paired with the first.  Every
   app is in exactly two pairs, and no pair but the anchor holds two
   small apps.  The pairs do not depend on the seed: when each seed drew
   its own cycle, which apps met decided the pass's cost, and
   run_p50_ms and run_p90_ms spread by 10% between seeds. *)
let consolidation_pairs =
  let by_footprint =
    List.map
      (fun a -> a.Workloads.App.name)
      (List.sort
         (fun a b ->
           compare
             (a.Workloads.App.footprint_mb, a.Workloads.App.name)
             (b.Workloads.App.footprint_mb, b.Workloads.App.name))
         Workloads.Catalogue.all)
  in
  let n = List.length by_footprint in
  let others = List.filter (fun x -> x <> fst anchor && x <> snd anchor) by_footprint in
  let smaller_half = (n / 2) - 2 in
  let small = Array.of_list (List.filteri (fun i _ -> i < smaller_half) others)
  and large = Array.of_list (List.filteri (fun i _ -> i >= smaller_half) others) in
  let cycle =
    Array.of_list
      (fst anchor :: snd anchor
      :: List.concat
           (List.init (Array.length large) (fun i ->
                if i < Array.length small then [ large.(i); small.(i) ] else [ large.(i) ])))
  in
  List.init n (fun i -> (cycle.(i), cycle.((i + 1) mod n)))

let halves = ([| 0; 1; 2; 3 |], [| 4; 5; 6; 7 |])

let consolidation ~base =
  let best a = a.Workloads.App.paper.Workloads.App.best_xen in
  List.concat_map
    (fun (na, nb) ->
      let a = app na and b = app nb in
      List.map
        (fun (threads, split, tuned) ->
          let policy x = if tuned then best x else round_1g in
          let vm ?home_nodes x = Engine.Config.vm ?home_nodes ~threads ~policy:(policy x) x in
          let vms =
            if split then [ vm ~home_nodes:(fst halves) a; vm ~home_nodes:(snd halves) b ]
            else [ vm a; vm b ]
          in
          let label =
            Printf.sprintf "xen+|%s+%s|%d%s|%s" na nb threads
              (if split then "h" else "")
              (if tuned then "best" else "r1g")
          in
          make ~base ~label ~mode:Engine.Config.Xen_plus vms)
        [ (24, true, false); (24, true, true); (48, false, false); (48, false, true) ])
    consolidation_pairs

let build ~seed = function
  | "static" -> Some (static ~base:seed)
  | "carrefour" -> Some (carrefour ~base:seed)
  | "faults" -> Some (faults ~base:seed)
  | "consolidation" -> Some (consolidation ~base:seed)
  | _ -> None
