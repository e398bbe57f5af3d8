(* Tests for the policies library: spec, internal interface, manager
   (boot placement, external interface), carrefour. *)

(* -------------------------------- spec ----------------------------- *)

let test_spec_names () =
  Alcotest.(check string) "ft" "first-touch" (Policies.Spec.name Policies.Spec.first_touch);
  Alcotest.(check string) "ftc" "first-touch/carrefour"
    (Policies.Spec.name Policies.Spec.first_touch_carrefour);
  Alcotest.(check string) "r4k" "round-4k" (Policies.Spec.name Policies.Spec.round_4k);
  Alcotest.(check string) "r1g" "round-1g" (Policies.Spec.name Policies.Spec.round_1g)

let test_spec_parse () =
  let ok s expected =
    match Policies.Spec.of_string s with
    | Ok p -> Alcotest.(check bool) s true (Policies.Spec.equal p expected)
    | Error m -> Alcotest.fail m
  in
  ok "first-touch" Policies.Spec.first_touch;
  ok "ft" Policies.Spec.first_touch;
  ok "FT/carrefour" Policies.Spec.first_touch_carrefour;
  ok "round-4k+carrefour" Policies.Spec.round_4k_carrefour;
  ok "interleave" Policies.Spec.round_4k;
  ok "r1g" Policies.Spec.round_1g;
  (match Policies.Spec.of_string "round-1g/carrefour" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "r1g+carrefour must be rejected");
  (* Unknown names and unknown suffixes are rejected, never parsed as
     the bare placement, and the message lists the valid spellings. *)
  List.iter
    (fun s ->
      match Policies.Spec.of_string s with
      | Error m ->
          Alcotest.(check string)
            (s ^ " message")
            (Printf.sprintf
               "unknown NUMA policy %S; valid policies: first-touch, first-touch/carrefour, \
                round-4k, round-4k/carrefour, round-1g (shorthands ft, r4k, r1g; \"+carrefour\" \
                also accepted)"
               (String.lowercase_ascii s))
            m
      | Ok p -> Alcotest.failf "%s must be rejected, parsed as %s" s (Policies.Spec.name p))
    [ "bogus"; "ft/carefour"; "r1g/x"; "first-touch+"; "r4k/carrefour/x"; "FT+Carefour" ]

let test_spec_runtime_selectable () =
  Alcotest.(check bool) "ft yes" true (Policies.Spec.runtime_selectable Policies.Spec.first_touch);
  Alcotest.(check bool) "r1g no (boot only)" false
    (Policies.Spec.runtime_selectable Policies.Spec.round_1g);
  Alcotest.(check int) "five specs" 5 (List.length Policies.Spec.all)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Policies.Spec.of_string (Policies.Spec.name spec) with
      | Ok parsed ->
          Alcotest.(check bool) (Policies.Spec.name spec) true (Policies.Spec.equal parsed spec)
      | Error m -> Alcotest.fail m)
    Policies.Spec.all

(* ------------------------------ internal --------------------------- *)

let small_system () =
  (* 1 GiB scaled frames: 16 frames per node. *)
  Xen.System.create ~page_scale:262144 (Numa.Amd48.topology ())

let make_domain ?(vcpus = 6) ?(gib = 4) s =
  Xen.System.create_domain s ~name:"t" ~kind:Xen.Domain.DomU ~vcpus
    ~mem_bytes:(gib * 1024 * 1024 * 1024) ()

let test_internal_map_page () =
  let s = small_system () in
  let d = make_domain s in
  (match Policies.Internal.map_page s d ~pfn:0 ~node:3 with
  | Ok mfn -> Alcotest.(check int) "on node 3" 3 (Memory.Machine.node_of_mfn s.Xen.System.machine mfn)
  | Error `Enomem -> Alcotest.fail "enomem");
  match Xen.P2m.get d.Xen.Domain.p2m 0 with
  | Xen.P2m.Mapped { writable; _ } -> Alcotest.(check bool) "writable" true writable
  | Xen.P2m.Invalid -> Alcotest.fail "not mapped"

let test_internal_map_replaces_and_frees () =
  let s = small_system () in
  let d = make_domain s in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:1);
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:2);
  (* Remapping freed the first frame: net usage is one frame. *)
  Alcotest.(check int) "one frame used" (free0 - 1) (Memory.Machine.free_frames s.Xen.System.machine)

let test_internal_migrate () =
  let s = small_system () in
  let d = make_domain ~gib:8 s in
  ignore (Policies.Internal.map_page s d ~pfn:5 ~node:0);
  (match Policies.Internal.migrate_page s d ~pfn:5 ~node:7 with
  | Ok mfn -> Alcotest.(check int) "now on 7" 7 (Memory.Machine.node_of_mfn s.Xen.System.machine mfn)
  | Error _ -> Alcotest.fail "migrate failed");
  Alcotest.(check (option int)) "node_of_pfn agrees" (Some 7) (Policies.Internal.node_of_pfn s d 5);
  Alcotest.(check int) "accounted" 1 d.Xen.Domain.account.Xen.Domain.migrated_pages;
  Alcotest.(check bool) "copy time charged" true
    (d.Xen.Domain.account.Xen.Domain.migrate_time > 0.0)

let test_internal_migrate_noop_same_node () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:1 ~node:4);
  (match Policies.Internal.migrate_page s d ~pfn:1 ~node:4 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "noop migrate failed");
  Alcotest.(check int) "no page copied" 0 d.Xen.Domain.account.Xen.Domain.migrated_pages

let test_internal_migrate_unmapped () =
  let s = small_system () in
  let d = make_domain s in
  match Policies.Internal.migrate_page s d ~pfn:2 ~node:1 with
  | Error `Not_mapped -> ()
  | Ok _ | Error `Enomem -> Alcotest.fail "expected Not_mapped"

let test_internal_migrate_preserves_protection () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:3 ~node:0);
  Xen.P2m.write_protect d.Xen.Domain.p2m 3;
  ignore (Policies.Internal.migrate_page s d ~pfn:3 ~node:2);
  match Xen.P2m.get d.Xen.Domain.p2m 3 with
  | Xen.P2m.Mapped { writable; _ } -> Alcotest.(check bool) "stays read-only" false writable
  | Xen.P2m.Invalid -> Alcotest.fail "unmapped"

(* ------------------------------- manager --------------------------- *)

let attach ?(boot = Policies.Spec.round_4k) ?(vcpus = 6) ?(gib = 4) s =
  let d = make_domain ~vcpus ~gib s in
  let rng = Sim.Rng.create ~seed:1 in
  (d, Policies.Manager.attach s d ~boot ~rng)

let test_manager_round4k_boot () =
  let s = small_system () in
  let d, m = attach s in
  Alcotest.(check int) "fully populated" d.Xen.Domain.mem_frames
    (Xen.P2m.mapped_count d.Xen.Domain.p2m);
  (* Round-robin over home nodes: consecutive pfns on consecutive homes. *)
  let home = d.Xen.Domain.home_nodes in
  for pfn = 0 to min 7 (d.Xen.Domain.mem_frames - 1) do
    Alcotest.(check (option int)) "round robin"
      (Some home.(pfn mod Array.length home))
      (Policies.Manager.node_of_pfn m pfn)
  done

let test_manager_round1g_boot () =
  let s = Xen.System.create ~page_scale:65536 (Numa.Amd48.topology ()) in
  (* 256 MiB scaled frames: 4 frames = 1 GiB. *)
  let d = Xen.System.create_domain s ~name:"r1g" ~kind:Xen.Domain.DomU ~vcpus:6 ~mem_bytes:(6 * 1024 * 1024 * 1024) () in
  let rng = Sim.Rng.create ~seed:2 in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_1g ~rng in
  let stats = Policies.Manager.stats m in
  Alcotest.(check int) "fully populated" d.Xen.Domain.mem_frames
    (Xen.P2m.mapped_count d.Xen.Domain.p2m);
  (* 6 GiB: first and last GiB fragmented, 4 middle 1 GiB regions. *)
  Alcotest.(check int) "four 1G regions" 4 stats.Policies.Manager.populated_1g;
  Alcotest.(check bool) "fragmented ends used finer grain" true
    (stats.Policies.Manager.populated_2m > 0 || stats.Policies.Manager.populated_4k > 0);
  (* A middle 1 GiB span lives on a single node. *)
  let n1 = Policies.Manager.node_of_pfn m 4 and n2 = Policies.Manager.node_of_pfn m 5 in
  Alcotest.(check bool) "1G span on one node" true (n1 = n2)

let test_manager_first_touch_boot_lazy () =
  let s = small_system () in
  let d, _m = attach ~boot:Policies.Spec.first_touch s in
  Alcotest.(check int) "nothing populated" 0 (Xen.P2m.mapped_count d.Xen.Domain.p2m)

let test_manager_first_touch_fault_places_locally () =
  let s = small_system () in
  let d, m = attach ~boot:Policies.Spec.first_touch s in
  (* Fault from a cpu on the second home node. *)
  let cpu = (Numa.Topology.cpu_array_of_node s.Xen.System.topo 1).(0) in
  Alcotest.(check bool) "fault mapped" true
    (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn:0 ~cpu);
  Alcotest.(check (option int)) "on toucher's node" (Some 1) (Policies.Manager.node_of_pfn m 0);
  Alcotest.(check int) "stat" 1 (Policies.Manager.stats m).Policies.Manager.first_touch_maps

let test_manager_set_policy () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "carrefour on" true (Policies.Manager.carrefour m <> None);
  Alcotest.(check string) "domain label" "first-touch/carrefour" d.Xen.Domain.policy_name;
  (match Policies.Manager.set_policy m Policies.Spec.round_4k with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "carrefour off" true (Policies.Manager.carrefour m = None);
  match Policies.Manager.set_policy m Policies.Spec.round_1g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "round-1g must be boot-only"

let test_manager_page_ops_invalidate () =
  let s = small_system () in
  let d, m = attach s in
  let stream = Obs.Stream.create ~capacity:4096 ~label:"page-ops" () in
  Xen.System.set_obs s (Some stream);
  let hypercall_time0 = d.Xen.Domain.account.Xen.Domain.hypercall_time in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  let time = Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0; Guest.Pv_queue.Release 1 |] in
  Alcotest.(check bool) "time positive" true (time > 0.0);
  Alcotest.(check bool) "entries invalid" true (Xen.P2m.get d.Xen.Domain.p2m 0 = Xen.P2m.Invalid);
  Alcotest.(check int) "frames freed" (free0 + 2) (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check int) "stats invalidated" 2 (Policies.Manager.stats m).Policies.Manager.invalidated;
  (* set_policy charged one hypercall, page_ops a second. *)
  let entries =
    List.filter (fun (_, e) -> e.Obs.Event.cls = Obs.Event.Hypercall_entry) (Obs.Stream.events stream)
  in
  Alcotest.(check int) "hypercalls accounted" 2 (List.length entries);
  Alcotest.(check (float 1e-15)) "hypercall time charged once each"
    (s.Xen.System.costs.Xen.Costs.hypercall_entry +. time)
    (d.Xen.Domain.account.Xen.Domain.hypercall_time -. hypercall_time0)

let test_manager_page_ops_reallocated_left () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let node_before = Policies.Manager.node_of_pfn m 2 in
  (* Released, then reallocated while still queued: the flush delivers
     only the Alloc, and the hypervisor leaves the page where it is. *)
  let q =
    Guest.Pv_queue.create ~frames:d.Xen.Domain.mem_frames
      ~flush:(Policies.Manager.page_ops_hypercall m)
      ()
  in
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 2);
  Guest.Pv_queue.record q (Guest.Pv_queue.Alloc 2);
  Guest.Pv_queue.flush_all q;
  Alcotest.(check (option int)) "left on its node" node_before (Policies.Manager.node_of_pfn m 2);
  Alcotest.(check bool) "still mapped" true (Xen.P2m.get d.Xen.Domain.p2m 2 <> Xen.P2m.Invalid);
  Alcotest.(check int) "left_in_place" 1 (Policies.Manager.stats m).Policies.Manager.left_in_place

let test_manager_page_ops_inert_without_first_touch () =
  let s = small_system () in
  let d, m = attach s in
  ignore (Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0 |]);
  Alcotest.(check bool) "entry survives under round-4k" true
    (Xen.P2m.get d.Xen.Domain.p2m 0 <> Xen.P2m.Invalid)

let test_manager_release_free_range_batches () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let time = Policies.Manager.release_free_range m ~first:0 ~count:d.Xen.Domain.mem_frames in
  Alcotest.(check bool) "positive time" true (time > 0.0);
  Alcotest.(check int) "all invalidated" 0 (Xen.P2m.mapped_count d.Xen.Domain.p2m)

(* [Manager.boundary_due] clause by clause and epoch by epoch:
   Carrefour (every 10 epochs from 0), superpages (the promotion scan,
   every 10 from 10) and reconcile sweeps (first-touch whose guest
   reports its free list, as under a fault plan: every 50 from 50) are
   each due on their own period and never off it. *)
let test_manager_boundary_due () =
  let manager ?(superpages = false) ?guest_free spec =
    let s = small_system () in
    let d = make_domain s in
    let m =
      Policies.Manager.attach ~superpages s d
        ~boot:(Policies.Spec.boot ~superpages spec)
        ~rng:(Sim.Rng.create ~seed:1)
    in
    (match Policies.Manager.switch m spec with Ok () -> () | Error e -> Alcotest.fail e);
    Policies.Manager.epoch_tick m ~epoch:1 ?guest_free ();
    m
  in
  let epochs = [ 0; 1; 9; 10; 15; 20; 49; 50; 100 ] in
  let due m = List.filter (fun epoch -> Policies.Manager.boundary_due m ~epoch) epochs in
  let feeds m = List.filter (fun epoch -> Policies.Manager.carrefour_due m ~epoch) epochs in
  let check = Alcotest.(check (list int)) in
  let carrefour = manager Policies.Spec.round_4k_carrefour in
  check "carrefour" [ 0; 10; 20; 50; 100 ] (due carrefour);
  check "carrefour feed" [ 0; 10; 20; 50; 100 ] (feeds carrefour);
  check "superpages" [ 10; 20; 50; 100 ] (due (manager ~superpages:true Policies.Spec.round_4k));
  check "first-touch with a fault plan: sweeps only" [ 50; 100 ]
    (due (manager ~guest_free:[] Policies.Spec.first_touch));
  check "none" [] (due (manager Policies.Spec.round_4k));
  check "no feed without carrefour" [] (feeds (manager Policies.Spec.round_4k));
  check "first-touch without a fault plan" [] (due (manager Policies.Spec.first_touch));
  check "free list without first-touch" [] (due (manager ~guest_free:[] Policies.Spec.round_4k))

(* ------------------------------ carrefour -------------------------- *)

let metrics ~controller_util ~max_link_util ~hot =
  {
    Policies.Carrefour.System_component.controller_util;
    max_link_util;
    imbalance = Sim.Stats.relative_stddev controller_util;
    hot_pages = Policies.Carrefour.hot_of_samples hot;
  }

let hot_page ?(read_fraction = 0.5) pfn ~node ~count =
  let node_accesses = Array.make 8 0.0 in
  node_accesses.(node) <- count;
  { Policies.Carrefour.pfn; node_accesses; read_fraction }

let config = Policies.Carrefour.User_component.default_config

(* One Carrefour period over a sample list. *)
let carrefour_epoch m ~counters ~samples =
  Policies.Manager.carrefour_epoch_feed m ~counters ~feed:(fun sys ->
      List.iter
        (fun (s : Policies.Carrefour.sample) ->
          Policies.Carrefour.System_component.record_sample sys ~pfn:s.Policies.Carrefour.pfn
            ~node_accesses:s.Policies.Carrefour.node_accesses
            ~read_fraction:s.Policies.Carrefour.read_fraction)
        samples)

(* One heat-table period over a sample list: decay, then the samples. *)
let feed_epoch sys samples =
  Policies.Carrefour.System_component.begin_epoch sys;
  List.iter
    (fun (s : Policies.Carrefour.sample) ->
      Policies.Carrefour.System_component.record_sample sys ~pfn:s.Policies.Carrefour.pfn
        ~node_accesses:s.Policies.Carrefour.node_accesses
        ~read_fraction:s.Policies.Carrefour.read_fraction)
    samples

(* A readout's rows ranked by (key descending, pfn ascending, row
   ascending), unscaled and cut to the first [cut]: a copy of the heat
   table's live view in the order and scale [decide] reasons in. *)
let ranked_readout ?cut (hot : Policies.Carrefour.hot) =
  let open Policies.Carrefour in
  let rows = Array.init hot.count Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare hot.keys.(b) hot.keys.(a) in
      if c <> 0 then c else Int.compare hot.pfns.(a) hot.pfns.(b))
    rows;
  let count = match cut with Some k -> min k hot.count | None -> hot.count in
  let nodes = hot.nodes in
  let unscale x = x /. hot.scale in
  let per_row f = Array.init count (fun i -> f rows.(i)) in
  {
    nodes;
    count;
    pfns = per_row (fun r -> hot.pfns.(r));
    counts =
      Array.init (count * nodes) (fun c ->
          unscale hot.counts.((rows.(c / nodes) * nodes) + (c mod nodes)));
    sums = per_row (fun r -> unscale hot.sums.(r));
    best = per_row (fun r -> hot.best.(r));
    reads = per_row (fun r -> unscale hot.reads.(r));
    keys = per_row (fun r -> unscale hot.keys.(r));
    scale = 1.0;
  }

(* The heat table's live view, ranked and unscaled. *)
let live_ranked ?cut sys ~counters =
  ranked_readout ?cut
    (Policies.Carrefour.System_component.read_metrics sys ~counters)
      .Policies.Carrefour.System_component.hot_pages

(* [User_component.decide] with a fresh workspace and, unless told
   otherwise, every page on node 0. *)
let decide ?(node_of = fun _ -> 0) cfg ~rng ~metrics =
  Policies.Carrefour.User_component.decide cfg ~workspace:(Policies.Carrefour.workspace ()) ~rng
    ~metrics ~node_of

let test_carrefour_interleave_on_overload () =
  let rng = Sim.Rng.create ~seed:1 in
  let hot = List.init 10 (fun i -> hot_page i ~node:0 ~count:100.0) in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.0 ~hot in
  let actions = decide config ~rng ~metrics:m in
  Alcotest.(check int) "all hot pages moved" 10 (List.length actions);
  List.iter
    (fun (a : Policies.Carrefour.User_component.action) ->
      Alcotest.(check bool) "interleave reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Interleave);
      Alcotest.(check bool) "to an underloaded node" true
        (a.Policies.Carrefour.User_component.dest <> 0))
    actions

let test_carrefour_locality_on_saturation () =
  let rng = Sim.Rng.create ~seed:2 in
  (* Page 3 accessed only from node 5, currently on node 0. *)
  let hot = [ hot_page 3 ~node:5 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  let actions = decide config ~rng ~metrics:m in
  match actions with
  | [ a ] ->
      Alcotest.(check int) "to the accessing node" 5 a.Policies.Carrefour.User_component.dest;
      Alcotest.(check bool) "locality reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Locality)
  | _ -> Alcotest.failf "expected one action, got %d" (List.length actions)

let test_carrefour_idle_no_actions () =
  let rng = Sim.Rng.create ~seed:3 in
  let hot = [ hot_page 1 ~node:2 ~count:1000.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.05 ~hot in
  Alcotest.(check int) "nothing to do" 0
    (List.length (decide config ~rng ~metrics:m))

let test_carrefour_respects_budget () =
  let rng = Sim.Rng.create ~seed:4 in
  let hot = List.init 100 (fun i -> hot_page i ~node:0 ~count:100.0) in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.0 ~hot in
  let tight = { config with Policies.Carrefour.User_component.migration_budget = 7 } in
  Alcotest.(check int) "budget capped" 7
    (List.length (decide tight ~rng ~metrics:m))

let test_carrefour_min_accesses_filter () =
  let rng = Sim.Rng.create ~seed:5 in
  let hot = [ hot_page 1 ~node:0 ~count:0.5 ] in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.9 ~hot in
  Alcotest.(check int) "cold page ignored" 0
    (List.length (decide config ~rng ~metrics:m))

let test_carrefour_system_decay () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  feed_epoch sys [ hot_page 0 ~node:1 ~count:4.0 ];
  Alcotest.(check int) "tracked" 1 (Policies.Carrefour.System_component.tracked_pages sys);
  (* Heat halves every epoch: after a few silent epochs the page drops
     below 1 and is forgotten. *)
  for _ = 1 to 4 do
    feed_epoch sys []
  done;
  Alcotest.(check int) "forgotten" 0 (Policies.Carrefour.System_component.tracked_pages sys)

(* The hot-page cap keeps the top of the full sort, ties included:
   [decide] capped at [k] on the live table view decides as it does on
   the view sorted (pfn-ascending ties) and cut to its first [k] rows.
   The table holds the pages in feed order, so a cap that kept the
   first [k] rows would keep pfns 0-11 instead. *)
let test_carrefour_topk_matches_sort () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  (* 40 pages over 5 distinct heat levels: plenty of ties for the
     pfn-ascending tie-break to matter. *)
  let samples =
    List.init 40 (fun i -> hot_page i ~node:(i mod 8) ~count:(float_of_int (30 + (10 * (i mod 5)))))
  in
  feed_epoch sys samples;
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.end_epoch counters ~duration:1.0;
  let k = 12 in
  let top = live_ranked ~cut:k sys ~counters in
  Alcotest.(check (list int)) "top-k = prefix of the full sort"
    [ 4; 9; 14; 19; 24; 29; 34; 39; 3; 8; 13; 18 ]
    (Array.to_list top.Policies.Carrefour.pfns);
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let decide_on cfg hot =
    decide cfg ~rng:(Sim.Rng.create ~seed:42)
      ~metrics:
        {
          Policies.Carrefour.System_component.controller_util;
          max_link_util = 0.9;
          imbalance = 0.0;
          hot_pages = hot;
        }
  in
  let tight = { config with Policies.Carrefour.User_component.max_hot_pages = k } in
  let live =
    (Policies.Carrefour.System_component.read_metrics sys ~counters)
      .Policies.Carrefour.System_component.hot_pages
  in
  let a_live = decide_on tight live in
  Alcotest.(check bool) "same migration set" true (a_live = decide_on config top);
  Alcotest.(check bool) "= the capped full sort" true
    (a_live = decide_on tight (live_ranked sys ~counters));
  Alcotest.(check (list int)) "the top k pages move"
    (List.sort compare (Array.to_list top.Policies.Carrefour.pfns))
    (List.sort compare
       (List.map
          (fun (a : Policies.Carrefour.User_component.action) ->
            a.Policies.Carrefour.User_component.pfn)
          a_live))

let test_carrefour_end_to_end_migration () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.round_4k_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let counters = Numa.Counters.create s.Xen.System.topo in
  (* Saturate node of pfn 0 and feed a single-remote-node hot page. *)
  let victim_node =
    match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "pfn 0 unmapped"
  in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses counters ~src:victim_node ~dst:victim_node
    ~count:(13.0 *. gib /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  let remote = (victim_node + 1) mod 8 in
  (match carrefour_epoch m ~counters ~samples:[ hot_page 0 ~node:remote ~count:1000.0 ] with
  | Some report ->
      Alcotest.(check bool) "some migration happened" true
        (report.Policies.Carrefour.interleave_migrations
         + report.Policies.Carrefour.locality_migrations
         > 0)
  | None -> Alcotest.fail "carrefour should be active");
  Alcotest.(check bool) "page moved off the hot node" true
    (Policies.Manager.node_of_pfn m 0 <> Some victim_node);
  Alcotest.(check bool) "migration accounted" true
    (d.Xen.Domain.account.Xen.Domain.migrated_pages > 0)

let test_carrefour_replication_mechanics () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  Alcotest.(check bool) "replicate" true (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check bool) "marked" true (Policies.Carrefour.System_component.is_replicated sys 0);
  (* One replica frame per other node is really held. *)
  Alcotest.(check int) "7 frames held" (free0 - 7) (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check bool) "double replicate refused" false
    (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check bool) "copy cost charged" true
    (d.Xen.Domain.account.Xen.Domain.migrate_time > 0.0);
  Policies.Carrefour.System_component.collapse sys ~pfn:0;
  Alcotest.(check bool) "collapsed" false (Policies.Carrefour.System_component.is_replicated sys 0);
  Alcotest.(check int) "frames returned" free0 (Memory.Machine.free_frames s.Xen.System.machine)

let test_carrefour_write_collapses_replica () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  ignore (Policies.Carrefour.System_component.replicate sys ~pfn:1);
  (* A read-only sample keeps the replicas... *)
  feed_epoch sys [ hot_page ~read_fraction:1.0 1 ~node:2 ~count:10.0 ];
  Alcotest.(check bool) "reads keep replicas" true
    (Policies.Carrefour.System_component.is_replicated sys 1);
  (* ...but a write invalidates them. *)
  feed_epoch sys [ hot_page ~read_fraction:0.9 1 ~node:2 ~count:10.0 ];
  Alcotest.(check bool) "write collapses" false
    (Policies.Carrefour.System_component.is_replicated sys 1)

(* A page [run_epoch] migrates loses its replicas before the migrator
   sees it.  The sample is read-only, so only the migration can
   collapse them. *)
let test_carrefour_migrate_collapses_replica () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let pfn = 2 in
  ignore (Policies.Carrefour.System_component.replicate sys ~pfn);
  let reader = (Policies.Carrefour.System_component.node_of sys pfn + 1) mod 8 in
  feed_epoch sys [ hot_page ~read_fraction:1.0 pfn ~node:reader ~count:1000.0 ];
  Alcotest.(check bool) "reads keep replicas" true
    (Policies.Carrefour.System_component.is_replicated sys pfn);
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.record_accesses counters ~src:1 ~dst:0 ~count:1e6 ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  let cfg = { config with Policies.Carrefour.User_component.ic_threshold = 0.0 } in
  let moves = ref [] in
  let report =
    Policies.Carrefour.run_epoch ~interleave_only:false
      ~migrate:(fun ~pfn ~node ->
        moves := (pfn, node, Policies.Carrefour.System_component.is_replicated sys pfn) :: !moves;
        true)
      sys ~config:cfg ~rng:(Sim.Rng.create ~seed:1) ~counters
  in
  Alcotest.(check int) "one locality migration" 1 report.Policies.Carrefour.locality_migrations;
  Alcotest.(check (list (triple int int bool))) "collapsed before the move"
    [ (pfn, reader, false) ] !moves;
  Alcotest.(check bool) "migration collapses replicas" false
    (Policies.Carrefour.System_component.is_replicated sys pfn)

let replication_config =
  {
    config with
    Policies.Carrefour.User_component.enable_replication = true;
    replication_read_threshold = 0.95;
    min_reader_nodes = 3;
  }

let multi_reader_page ?(read_fraction = 1.0) pfn ~count =
  { Policies.Carrefour.pfn; node_accesses = Array.make 8 count; read_fraction }

let test_carrefour_replication_decision () =
  let rng = Sim.Rng.create ~seed:6 in
  let hot = [ multi_reader_page 4 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  (match decide replication_config ~rng ~metrics:m with
  | [ a ] ->
      Alcotest.(check bool) "replicate reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Replicate)
  | actions -> Alcotest.failf "expected one replicate action, got %d" (List.length actions));
  (* Same page with writes: not a candidate. *)
  let hot = [ multi_reader_page ~read_fraction:0.7 5 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  let actions = decide replication_config ~rng ~metrics:m in
  Alcotest.(check bool) "written page not replicated" true
    (List.for_all
       (fun (a : Policies.Carrefour.User_component.action) ->
         a.Policies.Carrefour.User_component.reason
         <> Policies.Carrefour.User_component.Replicate)
       actions)

let test_carrefour_replication_off_by_default () =
  let rng = Sim.Rng.create ~seed:7 in
  let hot = [ multi_reader_page 6 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  Alcotest.(check bool) "default config never replicates" true
    (List.for_all
       (fun (a : Policies.Carrefour.User_component.action) ->
         a.Policies.Carrefour.User_component.reason
         <> Policies.Carrefour.User_component.Replicate)
       (decide config ~rng ~metrics:m))

let prop_carrefour_actions_within_budget_and_hot =
  QCheck.Test.make ~name:"carrefour actions subset of hot pages, within budget" ~count:100
    QCheck.(pair (int_range 1 50) (int_range 1 64))
    (fun (pages, budget) ->
      let rng = Sim.Rng.create ~seed:(pages + budget) in
      let hot = List.init pages (fun i -> hot_page i ~node:0 ~count:100.0) in
      let controller_util = [| 0.9; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1 |] in
      let m = metrics ~controller_util ~max_link_util:0.9 ~hot in
      let cfg = { config with Policies.Carrefour.User_component.migration_budget = budget } in
      let actions = decide cfg ~rng ~metrics:m in
      List.length actions <= budget
      && List.for_all
           (fun (a : Policies.Carrefour.User_component.action) ->
             a.Policies.Carrefour.User_component.pfn < pages)
           actions)

(* A sample wider than the table: only the [nodes] stored entries
   count toward the row's heat, on first sight and on accumulation. *)
let test_carrefour_wide_sample () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let node_accesses = Array.init 10 (fun j -> if j < 8 then 1.0 else 100.0) in
  Policies.Carrefour.System_component.begin_epoch sys;
  Policies.Carrefour.System_component.record_sample sys ~pfn:3 ~node_accesses ~read_fraction:0.5;
  Policies.Carrefour.System_component.record_sample sys ~pfn:3 ~node_accesses ~read_fraction:0.5;
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.end_epoch counters ~duration:1.0;
  let hot = live_ranked sys ~counters in
  Alcotest.(check int) "one row" 1 hot.Policies.Carrefour.count;
  Alcotest.(check (float 0.0)) "key" 16.0 hot.Policies.Carrefour.keys.(0);
  Alcotest.(check (float 0.0)) "sum" 16.0 hot.Policies.Carrefour.sums.(0);
  Alcotest.(check (float 0.0)) "read-weighted heat" 8.0 hot.Policies.Carrefour.reads.(0)

(* [node_of] agrees with the manager's P2M lookup on a mapped page
   and answers -1, not an exception, for an unmapped one. *)
let test_carrefour_node_of () =
  let s = small_system () in
  let d, m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  List.iter
    (fun pfn ->
      Alcotest.(check (option int)) "mapped" (Policies.Manager.node_of_pfn m pfn)
        (Some (Policies.Carrefour.System_component.node_of sys pfn)))
    [ 0; 1; d.Xen.Domain.mem_frames - 1 ];
  let s = small_system () in
  let d, _m = attach ~boot:Policies.Spec.first_touch s in
  let sys = Policies.Carrefour.System_component.create s d in
  Alcotest.(check int) "unmapped" (-1) (Policies.Carrefour.System_component.node_of sys 0)

(* Oracle for [User_component.decide]: the full-ranking decide it
   replaced, kept verbatim but for its inputs — it sums every row from
   its counts, scans for the dominant node, derives the read fraction
   from [reads]/[keys], sorts every qualifying row of each heuristic
   and walks the whole ranking.  It sorts with a stable sort over rows
   in table order on (key descending, pfn ascending), i.e. (key, pfn,
   row): the historical quicksort's order whenever pfns are distinct,
   as in every heat-table readout, and the documented tie order for a
   readout that repeats a pfn.  Above the hot-page cap it keeps the
   cap's worth of best-ranked rows of that order. *)
let oracle_decide ?(node_ok = fun (_ : int) -> true)
    (config : Policies.Carrefour.User_component.config) ~rng ~metrics ~node_of =
  let open Policies.Carrefour in
  let current_node pfn =
    let n = node_of pfn in
    if n < 0 then None else Some n
  in
  let hot = metrics.System_component.hot_pages in
  let nodes = hot.nodes in
  let utils = metrics.System_component.controller_util in
  let mean_util = Sim.Stats.mean utils in
  let overloaded =
    Array.to_list utils
    |> List.mapi (fun n u -> (n, u))
    |> List.filter (fun (_, u) -> u > config.User_component.mc_threshold && u > 1.25 *. mean_util)
    |> List.map fst
  in
  let underloaded =
    Array.to_list utils
    |> List.mapi (fun n u -> (n, u))
    |> List.filter (fun (n, u) -> u < mean_util && node_ok n)
    |> List.map fst
    |> Array.of_list
  in
  let controllers_overloaded = overloaded <> [] && Array.length underloaded > 0 in
  let interconnect_saturated =
    metrics.System_component.max_link_util > config.User_component.ic_threshold
  in
  let actions = ref []
  and seen = Hashtbl.create 64
  and budget = ref config.User_component.migration_budget in
  let emit pfn dest reason =
    if !budget > 0 && not (Hashtbl.mem seen pfn) then begin
      Hashtbl.replace seen pfn ();
      decr budget;
      actions := { User_component.pfn; dest; reason } :: !actions
    end
  in
  let rank rows =
    let a = Array.of_list rows in
    Array.stable_sort
      (fun x y ->
        let c = Float.compare hot.keys.(y) hot.keys.(x) in
        if c <> 0 then c else Int.compare hot.pfns.(x) hot.pfns.(y))
      a;
    a
  in
  let kept = Array.make hot.count false in
  Array.iteri
    (fun r i -> if r < config.User_component.max_hot_pages then kept.(i) <- true)
    (rank (List.init hot.count Fun.id));
  if controllers_overloaded || interconnect_saturated then begin
    let tot = Array.make (max 1 hot.count) 0.0 in
    let order = ref [] in
    for i = hot.count - 1 downto 0 do
      let t = ref 0.0 in
      for j = 0 to nodes - 1 do
        t := !t +. hot.counts.((i * nodes) + j)
      done;
      if kept.(i) && !t >= config.User_component.min_accesses then begin
        order := i :: !order;
        tot.(i) <- !t
      end
    done;
    if controllers_overloaded then
      Array.iter
        (fun i -> emit hot.pfns.(i) (Sim.Rng.pick rng underloaded) User_component.Interleave)
        (rank
           (List.filter
              (fun i ->
                match current_node hot.pfns.(i) with
                | Some node -> List.mem node overloaded
                | None -> false)
              !order));
    if interconnect_saturated then begin
      let read_fraction i =
        if hot.keys.(i) > 0.0 then hot.reads.(i) /. hot.keys.(i) else 1.0
      in
      let replicate_row i =
        config.User_component.enable_replication
        && read_fraction i >= config.User_component.replication_read_threshold
        &&
        let readers = ref 0 in
        for j = 0 to nodes - 1 do
          if hot.counts.((i * nodes) + j) > 0.02 *. tot.(i) then incr readers
        done;
        !readers >= config.User_component.min_reader_nodes
      in
      let best_node i =
        let base = i * nodes in
        let best = ref 0 in
        for j = 0 to nodes - 1 do
          if hot.counts.(base + j) > hot.counts.(base + !best) then best := j
        done;
        !best
      in
      Array.iter
        (fun i ->
          if replicate_row i then emit hot.pfns.(i) 0 User_component.Replicate
          else emit hot.pfns.(i) (best_node i) User_component.Locality)
        (rank
           (List.filter
              (fun i ->
                replicate_row i
                ||
                let best = best_node i in
                hot.counts.((i * nodes) + best) /. tot.(i) >= config.User_component.dominant_fraction
                && node_ok best
                &&
                match current_node hot.pfns.(i) with Some node -> node <> best | None -> false)
              !order))
    end
  end;
  List.rev !actions

(* One workspace for every case of the differential property, so reuse
   across periods of different widths is exercised too. *)
let shared_workspace = Policies.Carrefour.workspace ()

let prop_carrefour_decide_matches_oracle =
  QCheck.Test.make ~name:"carrefour decide = full-ranking oracle (actions and rng)" ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let rows = Random.State.int st 80 in
      (* Few distinct heats and a narrow pfn range: key ties and
         duplicate pfns are common. *)
      let pfn_range = 1 + (rows * 3 / 4) in
      let hot =
        List.init rows (fun _ ->
            let heat = pick [ 1.0; 3.0; 6.0; 12.0; 24.0; 48.0 ] in
            let node_accesses =
              match Random.State.int st 3 with
              | 0 -> Array.init 8 (fun n -> if n = Random.State.int st 8 then heat else 0.0)
              | 1 -> Array.init 8 (fun _ -> heat /. 8.0)
              | _ -> Array.init 8 (fun _ -> if Random.State.bool st then heat /. 4.0 else 0.0)
            in
            {
              Policies.Carrefour.pfn = Random.State.int st pfn_range;
              node_accesses;
              read_fraction = pick [ 1.0; 0.97; 0.5 ];
            })
      in
      let home = Array.init pfn_range (fun _ -> Random.State.int st 9 - 1) in
      let node_of pfn = home.(pfn) in
      let controller_util, max_link_util =
        match Random.State.int st 3 with
        | 0 -> ([| 0.9; 0.05; 0.8; 0.05; 0.05; 0.05; 0.05; 0.05 |], 0.0)
        | 1 -> (Array.make 8 0.2, 0.9)
        | _ -> ([| 0.9; 0.1; 0.1; 0.1; 0.7; 0.1; 0.1; 0.1 |], 0.9)
      in
      let offline = Random.State.int st 9 in
      let node_ok n = n <> offline in
      let cfg =
        {
          config with
          Policies.Carrefour.User_component.migration_budget =
            1 + Random.State.int st (max 1 (2 * rows));
          enable_replication = Random.State.bool st;
          min_reader_nodes = 2;
          max_hot_pages = (if Random.State.bool st then rows else Random.State.int st (rows + 1));
        }
      in
      let m = metrics ~controller_util ~max_link_util ~hot in
      let rng_new = Sim.Rng.create ~seed and rng_old = Sim.Rng.create ~seed in
      let got =
        Policies.Carrefour.User_component.decide ~node_ok cfg ~workspace:shared_workspace
          ~rng:rng_new ~metrics:m ~node_of
      in
      let want = oracle_decide ~node_ok cfg ~rng:rng_old ~metrics:m ~node_of in
      got = want && Sim.Rng.bits64 rng_new = Sim.Rng.bits64 rng_old)

(* The heat table's cached row sums and argmax against a model that
   replays the same float operations on plain per-page arrays: after
   every epoch, the live rows are exactly the model's pages whose
   halved sum stayed >= 1.0, with bit-identical counts, sums
   bit-identical to the in-order row sum, and the row's first largest
   count as its best node. *)
let prop_carrefour_heat_table_cache =
  QCheck.Test.make ~name:"carrefour heat table caches exact sums and argmax" ~count:100
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let s = small_system () in
      let d, _m = attach s in
      let sys = Policies.Carrefour.System_component.create s d in
      let counters = Numa.Counters.create s.Xen.System.topo in
      Numa.Counters.end_epoch counters ~duration:1.0;
      let model : (int, float array) Hashtbl.t = Hashtbl.create 64 in
      let in_order_sum row = Array.fold_left ( +. ) 0.0 row in
      let argmax row =
        let b = ref 0 in
        Array.iteri (fun j c -> if c > row.(!b) then b := j) row;
        !b
      in
      let bits = Int64.bits_of_float in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int st 12 do
        Policies.Carrefour.System_component.begin_epoch sys;
        let dropped = ref [] in
        Hashtbl.iter
          (fun pfn row ->
            Array.iteri (fun j c -> row.(j) <- c /. 2.0) row;
            if in_order_sum row < 1.0 then dropped := pfn :: !dropped)
          model;
        List.iter (Hashtbl.remove model) !dropped;
        for _ = 1 to Random.State.int st 40 do
          let pfn = Random.State.int st 64 in
          (* Small integers tie often; tiny values reach subnormals
             under halving; 9 and 10 wide samples overhang the table. *)
          let node_accesses =
            Array.init
              (8 + Random.State.int st 3)
              (fun _ ->
                match Random.State.int st 4 with
                | 0 -> 0.0
                | 1 -> float_of_int (Random.State.int st 4)
                | 2 -> Random.State.float st 1e-300
                | _ -> Random.State.float st 30.0)
          in
          Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses
            ~read_fraction:0.5;
          let row =
            match Hashtbl.find_opt model pfn with
            | Some row -> row
            | None ->
                let row = Array.make 8 0.0 in
                Hashtbl.replace model pfn row;
                row
          in
          for j = 0 to 7 do
            row.(j) <- row.(j) +. node_accesses.(j)
          done
        done;
        let hot = live_ranked sys ~counters in
        ok := !ok && hot.Policies.Carrefour.count = Hashtbl.length model;
        for i = 0 to hot.Policies.Carrefour.count - 1 do
          let row = Array.sub hot.Policies.Carrefour.counts (i * 8) 8 in
          match Hashtbl.find_opt model hot.Policies.Carrefour.pfns.(i) with
          | None -> ok := false
          | Some want ->
              ok :=
                !ok
                && Array.for_all2 (fun a b -> bits a = bits b) want row
                && bits hot.Policies.Carrefour.sums.(i) = bits (in_order_sum row)
                && hot.Policies.Carrefour.best.(i) = argmax row
        done
      done;
      !ok)

(* Eager model of the heat table: the float operations of the table
   that halved every count of every row at each epoch, on plain
   per-page rows — counts, read-weighted heat and accumulated total. *)
module Eager_heat = struct
  type row = { counts : float array; mutable reads : float; mutable total : float }

  let in_order_sum row = Array.fold_left ( +. ) 0.0 row

  let decay model =
    let dropped = ref [] in
    Hashtbl.iter
      (fun pfn row ->
        Array.iteri (fun j c -> row.counts.(j) <- c /. 2.0) row.counts;
        let total = in_order_sum row.counts in
        if total < 1.0 then dropped := pfn :: !dropped
        else begin
          row.reads <- row.reads /. 2.0;
          row.total <- total
        end)
      model;
    List.iter (Hashtbl.remove model) !dropped

  let record model ~pfn ~node_accesses ~read_fraction =
    let n = min (Array.length node_accesses) 8 in
    let added = ref 0.0 in
    for j = 0 to n - 1 do
      added := !added +. node_accesses.(j)
    done;
    match Hashtbl.find_opt model pfn with
    | Some row ->
        for j = 0 to n - 1 do
          row.counts.(j) <- row.counts.(j) +. node_accesses.(j)
        done;
        row.reads <- row.reads +. (read_fraction *. !added);
        row.total <- row.total +. !added
    | None ->
        let counts = Array.make 8 0.0 in
        Array.blit node_accesses 0 counts 0 n;
        Hashtbl.replace model pfn { counts; reads = read_fraction *. !added; total = !added }

  (* The rows in the readouts' rank order: total descending, pfn
     ascending. *)
  let ranked model =
    List.sort
      (fun (pa, a) (pb, b) ->
        let c = Float.compare b.total a.total in
        if c <> 0 then c else Int.compare pa pb)
      (Hashtbl.fold (fun pfn row acc -> (pfn, row) :: acc) model [])

  (* The model as a flat readout, keyed and read-weighted like the
     table's. *)
  let hot model =
    let rows = ranked model in
    let h =
      Policies.Carrefour.hot_of_samples
        (List.map
           (fun (pfn, row) ->
             { Policies.Carrefour.pfn; node_accesses = Array.copy row.counts; read_fraction = 0.5 })
           rows)
    in
    {
      h with
      Policies.Carrefour.reads = Array.of_list (List.map (fun (_, r) -> r.reads) rows);
      keys = Array.of_list (List.map (fun (_, r) -> r.total) rows);
    }
end

let bits = Int64.bits_of_float

let argmax row =
  let b = ref 0 in
  Array.iteri (fun j c -> if c > row.(!b) then b := j) row;
  !b

(* Row [i] of a readout against a model row, bit for bit. *)
let readout_row_matches (hot : Policies.Carrefour.hot) i (row : Eager_heat.row) =
  let counts = Array.sub hot.Policies.Carrefour.counts (i * 8) 8 in
  Array.for_all2 (fun a b -> bits a = bits b) row.Eager_heat.counts counts
  && bits hot.Policies.Carrefour.sums.(i) = bits (Eager_heat.in_order_sum counts)
  && hot.Policies.Carrefour.best.(i) = argmax counts
  && bits hot.Policies.Carrefour.reads.(i) = bits row.Eager_heat.reads
  && bits hot.Policies.Carrefour.keys.(i) = bits row.Eager_heat.total

(* One sample: small integers tie often, tiny and subnormal values
   decay through the subnormal range, 9 and 10 wide samples overhang
   the table. *)
let random_accesses st =
  Array.init
    (8 + Random.State.int st 3)
    (fun _ ->
      match Random.State.int st 6 with
      | 0 -> 0.0
      | 1 -> float_of_int (Random.State.int st 4)
      | 2 -> Random.State.float st 1e-300
      | 3 -> Random.State.float st 1e-310
      | _ -> Random.State.float st 30.0)

let is_subnormal x = x <> 0.0 && Float.abs x < Float.min_float

(* The heat table against the eager model over more epochs than the
   table's renormalisation period, with a page that stays hot while
   its tiny counts and read heat decay through the subnormal range:
   the live view, ranked and unscaled, matches the model's ranking row
   for row — pfn, counts, sum, argmax, read heat and key — bit for
   bit.  A case passes only if the model held a subnormal value in a
   live row. *)
let prop_carrefour_heat_table_eager =
  QCheck.Test.make ~name:"carrefour heat table = eager halving (renormalised, subnormal)"
    ~count:60 QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let s = small_system () in
      let d, _m = attach s in
      let sys = Policies.Carrefour.System_component.create s d in
      let counters = Numa.Counters.create s.Xen.System.topo in
      Numa.Counters.end_epoch counters ~duration:1.0;
      let model = Hashtbl.create 64 in
      let feed ~pfn ~node_accesses ~read_fraction =
        Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses ~read_fraction;
        Eager_heat.record model ~pfn ~node_accesses ~read_fraction
      in
      let keeper_reads = List.nth [ 0.5; 1e-300; 0.0 ] (Random.State.int st 3) in
      let ok = ref true and subnormal = ref false in
      (* The table renormalises every 64 periods. *)
      for epoch = 1 to 65 + Random.State.int st 80 do
        Policies.Carrefour.System_component.begin_epoch sys;
        Eager_heat.decay model;
        (* Page 0 stays hot; its tiny counts are never refreshed
           after the first epoch, so they halve into subnormals. *)
        let keeper = Array.make 8 0.0 in
        keeper.(0) <- 2.0;
        if epoch = 1 then begin
          keeper.(3) <- Random.State.float st 1e-300;
          keeper.(5) <- Random.State.float st 1e-290
        end;
        feed ~pfn:0 ~node_accesses:keeper ~read_fraction:keeper_reads;
        for _ = 1 to Random.State.int st 12 do
          feed
            ~pfn:(1 + Random.State.int st 15)
            ~node_accesses:(random_accesses st)
            ~read_fraction:(List.nth [ 0.5; 1.0; 1e-300 ] (Random.State.int st 3))
        done;
        let full = live_ranked sys ~counters in
        let want = Eager_heat.ranked model in
        ok :=
          !ok
          && full.Policies.Carrefour.count = List.length want
          && List.for_all Fun.id
               (List.mapi
                  (fun i (pfn, row) ->
                    full.Policies.Carrefour.pfns.(i) = pfn && readout_row_matches full i row)
                  want);
        List.iter
          (fun (_, (row : Eager_heat.row)) ->
            if Array.exists is_subnormal row.Eager_heat.counts || is_subnormal row.Eager_heat.reads
            then subnormal := true)
          want
      done;
      !ok && !subnormal)

(* [run_epoch] reads the live table unranked and still scaled; its
   actions (seen through the migrate hook and the report) and the
   state it leaves the RNG in must be those of [decide] over the eager
   model's unscaled readout, at every period through a
   renormalisation. *)
let prop_carrefour_unranked_readout_unscaled =
  QCheck.Test.make ~name:"carrefour run_epoch on the scaled table = decide on the eager readout"
    ~count:25 QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let s = small_system () in
      let d, _m = attach ~vcpus:48 ~gib:64 s in
      let sys = Policies.Carrefour.System_component.create s d in
      let counters = Numa.Counters.create s.Xen.System.topo in
      (* Node 0's controller is the only loaded one and the 1 -> 0 link
         carries traffic: with zero thresholds both heuristics run. *)
      let gib = 1024.0 *. 1024.0 *. 1024.0 in
      Numa.Counters.record_accesses counters ~src:1 ~dst:0 ~count:(4.0 *. gib /. 64.0)
        ~bytes_per_access:64.0;
      Numa.Counters.end_epoch counters ~duration:1.0;
      let cfg =
        {
          config with
          Policies.Carrefour.User_component.mc_threshold = 0.0;
          ic_threshold = 0.0;
          min_accesses = List.nth [ 2.0; 0.0 ] (Random.State.int st 2);
          migration_budget = 1 + Random.State.int st 12;
          enable_replication = Random.State.bool st;
          min_reader_nodes = 2;
        }
      in
      let topo = s.Xen.System.topo in
      let node_ok n = Numa.Topology.node_online topo n in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 65 + Random.State.int st 20 do
        Policies.Carrefour.System_component.begin_epoch sys;
        Eager_heat.decay model;
        for _ = 1 to Random.State.int st 16 do
          let pfn = Random.State.int st 64 in
          (* Some pages see only subnormal counts: with a zero heat
             threshold they reach the reader-node test. *)
          let node_accesses =
            if Random.State.int st 4 = 0 then
              Array.init 8 (fun _ ->
                  if Random.State.bool st then Random.State.float st 1e-310 else 0.0)
            else random_accesses st
          in
          let read_fraction = List.nth [ 0.5; 1.0; 0.97 ] (Random.State.int st 3) in
          Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses ~read_fraction;
          Eager_heat.record model ~pfn ~node_accesses ~read_fraction
        done;
        let rng_seed = Random.State.bits st in
        (* The table's utilisations with the model's readout. *)
        let metrics =
          {
            (Policies.Carrefour.System_component.read_metrics sys ~counters) with
            Policies.Carrefour.System_component.hot_pages = Eager_heat.hot model;
          }
        in
        let rng_want = Sim.Rng.create ~seed:rng_seed in
        let want =
          Policies.Carrefour.User_component.decide ~node_ok cfg
            ~workspace:(Policies.Carrefour.workspace ()) ~rng:rng_want ~metrics
            ~node_of:(Policies.Carrefour.System_component.node_of sys)
        in
        let moves = ref [] in
        let rng_got = Sim.Rng.create ~seed:rng_seed in
        let report =
          Policies.Carrefour.run_epoch ~interleave_only:false
            ~migrate:(fun ~pfn ~node ->
              moves := (pfn, node) :: !moves;
              false)
            sys ~config:cfg ~rng:rng_got ~counters
        in
        let want_moves =
          List.filter_map
            (fun (a : Policies.Carrefour.User_component.action) ->
              match a.Policies.Carrefour.User_component.reason with
              | Policies.Carrefour.User_component.Replicate -> None
              | _ -> Some (a.Policies.Carrefour.User_component.pfn, a.dest))
            want
        in
        ok :=
          !ok
          && List.rev !moves = want_moves
          && report.Policies.Carrefour.interleave_migrations
             + report.Policies.Carrefour.locality_migrations
             + report.Policies.Carrefour.replications + report.Policies.Carrefour.failed
             = List.length want
          && Sim.Rng.bits64 rng_got = Sim.Rng.bits64 rng_want
      done;
      !ok)

(* The reader-node test on a scaled readout forms its 2% threshold on
   the unscaled total, which differs from 2% of the scaled total only
   on pages of subnormal counts.  Counts [24q; q] (q the least
   subnormal): 2% of 25q rounds up to q, so node 3 is no reader and the
   page is a locality candidate, not a replication one. *)
let test_carrefour_reader_share_subnormal () =
  let s = small_system () in
  let d, _m = attach ~vcpus:48 ~gib:64 s in
  let sys = Policies.Carrefour.System_component.create s d in
  for _ = 1 to 5 do
    Policies.Carrefour.System_component.begin_epoch sys
  done;
  let pfn =
    List.find (fun p -> Policies.Carrefour.System_component.node_of sys p <> 2) [ 0; 1 ]
  in
  let q = Float.ldexp 1.0 (-1074) in
  let node_accesses = Array.make 8 0.0 in
  node_accesses.(2) <- 24.0 *. q;
  node_accesses.(3) <- q;
  Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses ~read_fraction:1.0;
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.record_accesses counters ~src:1 ~dst:0 ~count:1e6 ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  let cfg =
    {
      config with
      Policies.Carrefour.User_component.mc_threshold = 2.0;
      ic_threshold = 0.0;
      min_accesses = 0.0;
      enable_replication = true;
      min_reader_nodes = 2;
    }
  in
  let moves = ref [] in
  let report =
    Policies.Carrefour.run_epoch ~interleave_only:false
      ~migrate:(fun ~pfn ~node ->
        moves := (pfn, node) :: !moves;
        true)
      sys ~config:cfg ~rng:(Sim.Rng.create ~seed:1) ~counters
  in
  Alcotest.(check int) "no replication" 0 report.Policies.Carrefour.replications;
  Alcotest.(check (list (pair int int))) "locality move to node 2" [ (pfn, 2) ] !moves

(* [decide] over a readout with distinct pfns gives the same actions
   and leaves the RNG in the same state whatever the row order — the
   heat table swap-removes dropped rows and relies on it — and
   whatever power of two the readout carries, with a hot-page cap above
   or below the row count. *)
let prop_carrefour_decide_permutation =
  QCheck.Test.make ~name:"carrefour decide ignores row order and readout scale" ~count:300
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let rows = Random.State.int st 80 in
      let pfn_pool = Array.init (2 * rows + 1) Fun.id in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done
      in
      shuffle pfn_pool;
      let samples =
        Array.init rows (fun i ->
            let heat = pick [ 1.0; 3.0; 6.0; 12.0; 24.0; 48.0 ] in
            let node_accesses =
              match Random.State.int st 3 with
              | 0 -> Array.init 8 (fun n -> if n = Random.State.int st 8 then heat else 0.0)
              | 1 -> Array.init 8 (fun _ -> heat /. 8.0)
              | _ -> Array.init 8 (fun _ -> if Random.State.bool st then heat /. 4.0 else 0.0)
            in
            {
              Policies.Carrefour.pfn = pfn_pool.(i);
              node_accesses;
              read_fraction = pick [ 1.0; 0.97; 0.5 ];
            })
      in
      let home = Array.init (Array.length pfn_pool) (fun _ -> Random.State.int st 9 - 1) in
      let node_of pfn = home.(pfn) in
      let controller_util, max_link_util =
        match Random.State.int st 3 with
        | 0 -> ([| 0.9; 0.05; 0.8; 0.05; 0.05; 0.05; 0.05; 0.05 |], 0.0)
        | 1 -> (Array.make 8 0.2, 0.9)
        | _ -> ([| 0.9; 0.1; 0.1; 0.1; 0.7; 0.1; 0.1; 0.1 |], 0.9)
      in
      let offline = Random.State.int st 9 in
      let node_ok n = n <> offline in
      let cfg =
        {
          config with
          Policies.Carrefour.User_component.migration_budget =
            1 + Random.State.int st (max 1 (2 * rows));
          enable_replication = Random.State.bool st;
          min_reader_nodes = 2;
          max_hot_pages =
            (if Random.State.bool st then rows + Random.State.int st 3
             else Random.State.int st (max 1 rows));
        }
      in
      let run hot =
        let rng = Sim.Rng.create ~seed in
        let m =
          {
            Policies.Carrefour.System_component.controller_util;
            max_link_util;
            imbalance = 0.0;
            hot_pages = hot;
          }
        in
        let actions =
          Policies.Carrefour.User_component.decide ~node_ok cfg ~workspace:shared_workspace ~rng
            ~metrics:m ~node_of
        in
        (actions, Sim.Rng.bits64 rng)
      in
      let base = Policies.Carrefour.hot_of_samples (Array.to_list samples) in
      shuffle samples;
      let permuted = Policies.Carrefour.hot_of_samples (Array.to_list samples) in
      let scale = Float.ldexp 1.0 (Random.State.int st 64) in
      let up = Array.map (fun x -> x *. scale) in
      let scaled =
        {
          permuted with
          Policies.Carrefour.counts = up permuted.Policies.Carrefour.counts;
          sums = up permuted.Policies.Carrefour.sums;
          reads = up permuted.Policies.Carrefour.reads;
          keys = up permuted.Policies.Carrefour.keys;
          scale;
        }
      in
      let want = run base in
      run permuted = want && run scaled = want)

(* The hot-page cap on the live table: [decide] capped below the row
   count, on the heat table's own view — scaled, rows in swap-removal
   order — gives the actions and leaves the RNG as [decide] on that
   view ranked, unscaled and cut to the cap, at every period. *)
let prop_carrefour_capped_decide =
  QCheck.Test.make ~name:"carrefour capped decide = decide on the ranked cut" ~count:40
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let s = small_system () in
      let d, _m = attach s in
      let sys = Policies.Carrefour.System_component.create s d in
      let counters = Numa.Counters.create s.Xen.System.topo in
      Numa.Counters.end_epoch counters ~duration:1.0;
      let home = Array.init 256 (fun _ -> Random.State.int st 9 - 1) in
      let node_of pfn = home.(pfn) in
      let ok = ref true and capped = ref 0 in
      for _ = 1 to 20 + Random.State.int st 60 do
        Policies.Carrefour.System_component.begin_epoch sys;
        for _ = 1 to Random.State.int st 24 do
          Policies.Carrefour.System_component.record_sample sys ~pfn:(Random.State.int st 256)
            ~node_accesses:(random_accesses st)
            ~read_fraction:(pick [ 0.5; 1.0; 0.97 ])
        done;
        let live =
          (Policies.Carrefour.System_component.read_metrics sys ~counters)
            .Policies.Carrefour.System_component.hot_pages
        in
        if live.Policies.Carrefour.count > 0 then begin
          let cap = Random.State.int st live.Policies.Carrefour.count in
          let controller_util, max_link_util =
            pick
              [
                ([| 0.9; 0.05; 0.8; 0.05; 0.05; 0.05; 0.05; 0.05 |], 0.0);
                (Array.make 8 0.2, 0.9);
                ([| 0.9; 0.1; 0.1; 0.1; 0.7; 0.1; 0.1; 0.1 |], 0.9);
              ]
          in
          let offline = Random.State.int st 9 in
          let node_ok n = n <> offline in
          let cfg =
            {
              config with
              Policies.Carrefour.User_component.migration_budget = 1 + Random.State.int st 40;
              enable_replication = Random.State.bool st;
              min_reader_nodes = 2;
              min_accesses = pick [ 0.0; 2.0; 8.0 ];
              max_hot_pages = cap;
            }
          in
          let rng_seed = Random.State.bits st in
          let run cfg hot =
            let rng = Sim.Rng.create ~seed:rng_seed in
            let actions =
              Policies.Carrefour.User_component.decide ~node_ok cfg ~workspace:shared_workspace
                ~rng
                ~metrics:
                  {
                    Policies.Carrefour.System_component.controller_util;
                    max_link_util;
                    imbalance = 0.0;
                    hot_pages = hot;
                  }
                ~node_of
            in
            (actions, Sim.Rng.bits64 rng)
          in
          let want =
            run { cfg with max_hot_pages = config.max_hot_pages } (ranked_readout ~cut:cap live)
          in
          ok := !ok && run cfg live = want;
          incr capped
        end
      done;
      !ok && !capped > 0)

(* ------------------------- promotion scan -------------------------- *)

(* The promotion scan before its early exit, kept verbatim but for its
   state (cursor, counters and trace go to refs): it classifies every
   frame of an extent through [P2m.get]. *)
let oracle_promote_scan s d ~cursor ~promotes ~migrates ~events =
  let p2m = d.Xen.Domain.p2m in
  let sp = Xen.P2m.sp_frames p2m in
  let machine = s.Xen.System.machine in
  let costs = s.Xen.System.costs in
  let account = d.Xen.Domain.account in
  let extents = Xen.P2m.frames p2m / sp in
  let frames_4k = sp * Memory.Machine.page_scale machine in
  let emit ~pfn ~node cls = events := (cls, pfn, node, sp) :: !events in
  let examined = ref 0 in
  let promoted = ref 0 in
  let to_scan = min extents 512 in
  while !examined < to_scan && !promoted < 2 do
    let base = (!cursor + !examined) mod extents * sp in
    incr examined;
    if not (Xen.P2m.is_superpage p2m base) then begin
      let all_mapped = ref true in
      let node = ref (-1) in
      let same_node = ref true in
      let uniform_w = ref true in
      let w0 = ref false in
      for i = 0 to sp - 1 do
        match Xen.P2m.get p2m (base + i) with
        | Xen.P2m.Invalid -> all_mapped := false
        | Xen.P2m.Mapped { mfn; writable } ->
            let n = Memory.Machine.node_of_mfn machine mfn in
            if i = 0 then begin
              node := n;
              w0 := writable
            end
            else begin
              if n <> !node then same_node := false;
              if writable <> !w0 then uniform_w := false
            end
      done;
      if !all_mapped && !same_node && !uniform_w then begin
        if Xen.P2m.promote p2m ~pfn:base then begin
          account.Xen.Domain.migrate_time <-
            account.Xen.Domain.migrate_time
            +. Xen.Costs.promote_time costs ~frames_4k ~copy_bytes:0;
          incr promotes;
          emit ~pfn:base ~node:!node Obs.Event.Promote;
          incr promoted
        end
        else begin
          match
            Memory.Machine.alloc_on machine ~node:!node ~order:(Memory.Machine.order_2m machine)
          with
          | None -> ()
          | Some new_base ->
              Memory.Machine.split_block machine ~mfn:new_base
                ~order:(Memory.Machine.order_2m machine);
              for i = 0 to sp - 1 do
                match Xen.P2m.get p2m (base + i) with
                | Xen.P2m.Mapped { mfn = old_mfn; writable } ->
                    Xen.P2m.set p2m (base + i) ~mfn:(new_base + i) ~writable;
                    Memory.Machine.free machine ~mfn:old_mfn ~order:0
                | Xen.P2m.Invalid -> assert false
              done;
              let ok = Xen.P2m.promote p2m ~pfn:base in
              assert ok;
              account.Xen.Domain.migrate_time <-
                account.Xen.Domain.migrate_time
                +. Xen.Costs.promote_time costs ~frames_4k
                     ~copy_bytes:(sp * Memory.Machine.frame_bytes machine);
              incr migrates;
              emit ~pfn:base ~node:!node Obs.Event.Superpage_migrate;
              incr promoted
        end
      end
    end
  done;
  cursor := (!cursor + !examined) mod extents;
  !promoted

(* A superpage-enabled domain whose extents (8 frames of 256 KiB) mix
   every shape the scan meets: empty, holes at random offsets,
   contiguous single-node blocks, scattered single-node frames, a
   stray frame on a second node, one frame of differing writability,
   existing superpages, and scattered frames on a node left with no
   free 2 MiB block.  Deterministic in [seed], so two calls build
   identical worlds. *)
let promote_world seed =
  let st = Random.State.make [| seed |] in
  let s = Xen.System.create ~page_scale:64 (Numa.Amd48.topology ()) in
  let extents = 8 + Random.State.int st 56 in
  let d =
    Xen.System.create_domain s ~name:"sp" ~kind:Xen.Domain.DomU ~vcpus:6
      ~mem_bytes:(extents * 2 * 1024 * 1024) ()
  in
  let m =
    Policies.Manager.attach ~superpages:true s d ~boot:Policies.Spec.first_touch
      ~rng:(Sim.Rng.create ~seed:1)
  in
  let p2m = d.Xen.Domain.p2m and machine = s.Xen.System.machine in
  let sp = Xen.P2m.sp_frames p2m in
  let order = Memory.Machine.order_2m machine in
  let starved = Random.State.int st 8 in
  let other node = (node + 1 + Random.State.int st 7) mod 8 in
  let frame node = Option.get (Memory.Machine.alloc_frame machine ~node) in
  let block node = Option.get (Memory.Machine.alloc_on machine ~node ~order) in
  let contiguous node =
    let b = block node in
    Memory.Machine.split_block machine ~mfn:b ~order;
    Array.init sp (fun i -> b + i)
  in
  (* Frames of one node in descending order: never a contiguous run. *)
  let scattered node =
    let a = Array.init sp (fun _ -> frame node) in
    Array.sort (fun x y -> compare y x) a;
    a
  in
  let install base ?(skip = -1) ?(flip = -1) ~writable mfns =
    Array.iteri
      (fun i mfn ->
        if i <> skip then
          Xen.P2m.set p2m (base + i) ~mfn ~writable:(if i = flip then not writable else writable))
      mfns
  in
  for e = 0 to extents - 1 do
    let base = e * sp in
    let node = Random.State.int st 8 in
    let writable = Random.State.bool st in
    let at = Random.State.int st sp in
    match Random.State.int st 9 with
    | 0 -> ()
    | 1 -> install base ~writable (contiguous node)
    | 2 -> install base ~writable ~skip:at (contiguous node)
    | 3 -> install base ~writable (scattered node)
    | 4 -> install base ~writable ~skip:at (scattered node)
    | 5 ->
        let mfns = if Random.State.bool st then contiguous node else scattered node in
        mfns.(at) <- frame (other node);
        install base ~writable mfns
    | 6 -> install base ~writable ~flip:at (contiguous node)
    | 7 -> Xen.P2m.map_superpage p2m ~pfn:base ~mfn:(block node) ~writable
    | _ -> install base ~writable (scattered starved)
  done;
  while Memory.Machine.alloc_on machine ~node:starved ~order <> None do
    ()
  done;
  (s, d, m)

let event_tuple (_, (e : Obs.Event.t)) =
  (e.Obs.Event.cls, e.Obs.Event.pfn, e.Obs.Event.node, e.Obs.Event.arg)

let same_p2m a b =
  let frames = Xen.P2m.frames a in
  let ok = ref (frames = Xen.P2m.frames b) in
  for pfn = 0 to frames - 1 do
    ok :=
      !ok
      && Xen.P2m.get a pfn = Xen.P2m.get b pfn
      && Xen.P2m.is_superpage a pfn = Xen.P2m.is_superpage b pfn
  done;
  !ok

(* [Manager.promote_scan] against the full-classification oracle on
   two identical worlds, over consecutive scans: the same return
   values, cursor, P2M, promote and superpage-migrate counts, charged
   time, free frames and trace events. *)
let prop_promote_scan_matches_oracle =
  QCheck.Test.make ~name:"promote scan = full-classification oracle" ~count:60
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let s, d, m = promote_world seed in
      let s', d', _ = promote_world seed in
      let stream = Obs.Stream.create ~label:"scan" () in
      Xen.System.set_obs s (Some stream);
      let cursor = ref 0 and promotes = ref 0 and migrates = ref 0 and events = ref [] in
      let ok = ref true in
      for _ = 1 to 8 do
        let got = Policies.Manager.promote_scan m in
        let want = oracle_promote_scan s' d' ~cursor ~promotes ~migrates ~events in
        let stats = Policies.Manager.stats m in
        ok :=
          !ok && got = want
          && Policies.Manager.promote_cursor m = !cursor
          && stats.Policies.Manager.promotes = !promotes
          && stats.Policies.Manager.superpage_migrates = !migrates
          && d.Xen.Domain.account.Xen.Domain.migrate_time
             = d'.Xen.Domain.account.Xen.Domain.migrate_time
          && Memory.Machine.free_frames s.Xen.System.machine
             = Memory.Machine.free_frames s'.Xen.System.machine
          && same_p2m d.Xen.Domain.p2m d'.Xen.Domain.p2m
          && List.map event_tuple (Obs.Stream.events stream) = List.rev !events
      done;
      !ok && Xen.P2m.check_consistent d.Xen.Domain.p2m)

(* [Manager.release_free_range] against the list path it replaced,
   kept here as the oracle: 128-op Release chunks through
   [page_ops_hypercall].  Two identical worlds with superpages booted
   round-1G (so the release splinters), with or without a batch-loss
   plan, release the same random range after the switch to
   first-touch.  They must end with the same P2M, free frames per node,
   stats, degradation counters, account, hypercall table, returned
   time and trace events. *)
let release_oracle m ~first ~count =
  let total = ref 0.0 and off = ref 0 in
  while !off < count do
    let n = min 128 (count - !off) in
    let ops = Array.init n (fun i -> Guest.Pv_queue.Release (first + !off + i)) in
    total := !total +. Policies.Manager.page_ops_hypercall m ops;
    off := !off + n
  done;
  !total

let prop_release_range_matches_list_path =
  QCheck.Test.make ~name:"release_free_range = page-ops list path" ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) bool)
    (fun (seed, r, lossy) ->
      let world () =
        let s = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
        let d =
          Xen.System.create_domain s ~name:"release" ~kind:Xen.Domain.DomU ~vcpus:1
            ~mem_bytes:(64 * 1024 * 1024) ()
        in
        let m =
          Policies.Manager.attach ~superpages:true s d ~boot:Policies.Spec.round_1g
            ~rng:(Sim.Rng.create ~seed)
        in
        if lossy then begin
          let inj = Faults.Injector.create ~seed (Faults.Plan.of_string_exn "batch-loss=0.5") in
          Faults.Injector.install inj s;
          Faults.Injector.set_epoch inj 0
        end;
        (match Policies.Manager.set_policy m Policies.Spec.first_touch with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let stream = Obs.Stream.create ~capacity:65536 ~label:"release" () in
        Xen.System.set_obs s (Some stream);
        (s, d, m, stream)
      in
      let s, d, m, stream = world () and s', d', m', stream' = world () in
      let frames = d.Xen.Domain.mem_frames in
      let first = r mod frames in
      let count = 1 + (r / frames mod (frames - first)) in
      let t = Policies.Manager.release_free_range m ~first ~count in
      let t' = release_oracle m' ~first ~count in
      let machine = s.Xen.System.machine and machine' = s'.Xen.System.machine in
      Int64.bits_of_float t = Int64.bits_of_float t'
      && same_p2m d.Xen.Domain.p2m d'.Xen.Domain.p2m
      && List.for_all
           (fun n -> Memory.Machine.free_frames_on machine n = Memory.Machine.free_frames_on machine' n)
           (List.init 8 Fun.id)
      && Policies.Manager.stats m = Policies.Manager.stats m'
      && Policies.Manager.degrade m = Policies.Manager.degrade m'
      && d.Xen.Domain.account = d'.Xen.Domain.account
      && Obs.Stream.events stream = Obs.Stream.events stream'
      && (lossy || (Policies.Manager.stats m).Policies.Manager.splinters > 0))

(* ------------------------- failure injection ------------------------ *)

(* Exhaust one node's 16 one-GiB frames. *)
let drain_node s node =
  let rec go acc =
    match Memory.Machine.alloc_frame s.Xen.System.machine ~node with
    | Some mfn -> go (mfn :: acc)
    | None -> acc
  in
  go []

let test_failure_migrate_to_full_node () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:0);
  let held = drain_node s 7 in
  (match Policies.Internal.migrate_page s d ~pfn:0 ~node:7 with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "migration to a full node must fail"
  | Error `Not_mapped -> Alcotest.fail "page is mapped");
  (* The page survives on its original node; nothing leaked. *)
  Alcotest.(check (option int)) "still on node 0" (Some 0) (Policies.Internal.node_of_pfn s d 0);
  Alcotest.(check int) "no pages copied" 0 d.Xen.Domain.account.Xen.Domain.migrated_pages;
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_map_when_machine_full () =
  let s = small_system () in
  let d = make_domain s in
  let held = List.concat_map (fun node -> drain_node s node) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  (match Policies.Internal.map_page s d ~pfn:1 ~node:3 with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "map must fail when the machine is full");
  Alcotest.(check bool) "entry still invalid" true (Xen.P2m.get d.Xen.Domain.p2m 1 = Xen.P2m.Invalid);
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_carrefour_reports_failed () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.round_4k_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore d;
  let victim_node =
    match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "unmapped"
  in
  (* Fill every other node so no migration can find a frame. *)
  let held =
    List.concat_map
      (fun node -> if node = victim_node then [] else drain_node s node)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let counters = Numa.Counters.create s.Xen.System.topo in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses counters ~src:victim_node ~dst:victim_node
    ~count:(13.0 *. gib /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  (match carrefour_epoch m ~counters ~samples:[ hot_page 0 ~node:victim_node ~count:1000.0 ] with
  | Some report ->
      Alcotest.(check bool) "failure counted, no crash" true
        (report.Policies.Carrefour.failed > 0
        || report.Policies.Carrefour.interleave_migrations
           + report.Policies.Carrefour.locality_migrations
           = 0)
  | None -> Alcotest.fail "carrefour active");
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_replicate_leaks_nothing () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let held = drain_node s 6 in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  Alcotest.(check bool) "replicate fails (node 6 full)" false
    (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check int) "no frames leaked" free0 (Memory.Machine.free_frames s.Xen.System.machine);
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

(* ------------------------------ evacuation ------------------------- *)

let mapped_pfns d =
  let pfns = ref [] in
  Xen.P2m.iter_mapped d.Xen.Domain.p2m (fun pfn _ -> pfns := pfn :: !pfns);
  List.sort compare !pfns

let test_ecc_handlers () =
  let s = small_system () in
  let d, m = attach s in
  let machine = s.Xen.System.machine in
  let node0 = match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "unmapped" in
  (* CE: scrubbed in place — same node, frame stays online. *)
  Policies.Manager.handle_ecc_ce m ~pfn:0;
  Alcotest.(check (option int)) "ce leaves the page" (Some node0) (Policies.Manager.node_of_pfn m 0);
  (* UE: the frame is poisoned — remapped elsewhere, old frame retired. *)
  let bad_mfn =
    match Xen.P2m.get d.Xen.Domain.p2m 1 with
    | Xen.P2m.Mapped { mfn; _ } -> mfn
    | Xen.P2m.Invalid -> Alcotest.fail "pfn 1 unmapped"
  in
  Policies.Manager.handle_ecc_ue m ~pfn:1;
  Alcotest.(check bool) "pfn 1 still mapped" true (Xen.P2m.get d.Xen.Domain.p2m 1 <> Xen.P2m.Invalid);
  Alcotest.(check bool) "poisoned frame offlined" true (Memory.Machine.is_offlined machine bad_mfn);
  (* Unmapped pfns are a no-op for both handlers. *)
  let off0 = (Policies.Manager.degrade m).Policies.Manager.offlined in
  Policies.Manager.handle_ecc_ue m ~pfn:(d.Xen.Domain.mem_frames - 1 + 1_000_000);
  Alcotest.(check int) "unmapped ue ignored" off0
    (Policies.Manager.degrade m).Policies.Manager.offlined;
  let dg = Policies.Manager.degrade m in
  Alcotest.(check int) "one ce counted" 1 dg.Policies.Manager.ecc_ce;
  Alcotest.(check int) "one ue counted" 1 dg.Policies.Manager.ecc_ue;
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent d.Xen.Domain.p2m)

(* The evacuation's ENOMEM path.  Seventeen pages leave failed node 0
   round-robin over nodes 1..7 in pfn order, so the node-1 group is
   [0; 7; 14] and the node-2 group [1; 8; 15].  Node 2 has one free
   frame: the node-1 group moves, the node-2 group moves pfn 1 and
   stops the step.  Its unmoved tail is deferred (one Migrate_defer per
   pfn), the first backoff is charged, and the later groups stay put. *)
let test_evacuation_enomem_defers_tail () =
  let s = Xen.System.create ~page_scale:16384 (Numa.Amd48.topology ()) in
  let d =
    Xen.System.create_domain s ~name:"evac" ~kind:Xen.Domain.DomU ~vcpus:6
      ~mem_bytes:(4 * 1024 * 1024 * 1024) ()
  in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.first_touch ~rng:(Sim.Rng.create ~seed:6) in
  let machine = s.Xen.System.machine in
  for pfn = 0 to 16 do
    ignore (Policies.Internal.map_page s d ~pfn ~node:0)
  done;
  let held =
    match drain_node s 2 with
    | mfn :: rest ->
        Memory.Machine.free machine ~mfn ~order:0;
        rest
    | [] -> []
  in
  let stream = Obs.Stream.create ~label:"evac" () in
  Xen.System.set_obs s (Some stream);
  Numa.Topology.set_node_online s.Xen.System.topo 0 false;
  Policies.Manager.request_evacuation m ~node:0;
  Policies.Manager.epoch_tick m ~epoch:1 ();
  let dg = Policies.Manager.degrade m in
  Alcotest.(check int) "evacuated" 4 dg.Policies.Manager.evacuated;
  Alcotest.(check int) "tail deferred" 2 dg.Policies.Manager.deferred;
  Alcotest.(check (float 0.0)) "first backoff charged" 2e-5 dg.Policies.Manager.backoff_time;
  (* The drain runs right after the step and finds node 2 still full. *)
  Alcotest.(check int) "tail pending" 2 (Policies.Manager.pending_migrations m);
  Alcotest.(check (list (pair int int))) "events"
    [ (1, 3); (2, 1); (8, 2); (15, 2) ]
    (List.filter_map
       (fun (_, (e : Obs.Event.t)) ->
         match e.Obs.Event.cls with
         | Obs.Event.Evacuate -> Some (e.Obs.Event.node, e.Obs.Event.arg)
         | Obs.Event.Migrate_defer -> Some (e.Obs.Event.pfn, e.Obs.Event.node)
         | _ -> None)
       (Obs.Stream.events stream));
  List.iter
    (fun (pfn, node) ->
      Alcotest.(check (option int)) (Printf.sprintf "pfn %d" pfn) (Some node)
        (Policies.Manager.node_of_pfn m pfn))
    [ (0, 1); (7, 1); (14, 1); (1, 2); (8, 0); (15, 0); (2, 0); (16, 0) ];
  List.iter (fun mfn -> Memory.Machine.free machine ~mfn ~order:0) held

(* The RAS satellite property: after a node failure the drain completes,
   the P2M maps exactly the pfns it mapped before the failure, none of
   them resident on the failed node or on an offlined machine frame,
   and frame accounting still balances. *)
let prop_evacuation_conserves_frames =
  QCheck.Test.make ~name:"evacuation conserves the guest frame set" ~count:60
    QCheck.(pair (int_range 0 1000) (int_range 1 4))
    (fun (n, gib) ->
      let s = Xen.System.create ~page_scale:16384 (Numa.Amd48.topology ()) in
      let d =
        Xen.System.create_domain s ~name:"evac" ~kind:Xen.Domain.DomU ~vcpus:6
          ~mem_bytes:(gib * 1024 * 1024 * 1024) ()
      in
      let rng = Sim.Rng.create ~seed:((n * 7919) + 3) in
      let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_4k ~rng in
      let pre = mapped_pfns d in
      let home = d.Xen.Domain.home_nodes in
      let node = home.(n mod Array.length home) in
      let machine = s.Xen.System.machine in
      Numa.Topology.set_node_online s.Xen.System.topo node false;
      ignore (Memory.Machine.offline_node machine node);
      Policies.Manager.request_evacuation m ~node;
      let epoch = ref 0 in
      while Policies.Manager.evacuating m >= 0 && !epoch < 2_000 do
        Policies.Manager.epoch_tick m ~epoch:!epoch ();
        incr epoch
      done;
      let resident_bad = ref 0 in
      Xen.P2m.iter_mapped d.Xen.Domain.p2m (fun _ mfn ->
          if
            Memory.Machine.is_offlined machine mfn
            || Memory.Machine.node_of_mfn machine mfn = node
          then incr resident_bad);
      Policies.Manager.evacuating m = -1
      && mapped_pfns d = pre
      && !resident_bad = 0
      && (Policies.Manager.degrade m).Policies.Manager.evacuated > 0
      && Xen.P2m.check_consistent d.Xen.Domain.p2m)

let suite =
  [
    ( "policies.failure-injection",
      [
        Alcotest.test_case "migrate to full node" `Quick test_failure_migrate_to_full_node;
        Alcotest.test_case "map when machine full" `Quick test_failure_map_when_machine_full;
        Alcotest.test_case "carrefour out of memory" `Quick test_failure_carrefour_reports_failed;
        Alcotest.test_case "replicate leaks nothing" `Quick test_failure_replicate_leaks_nothing;
      ] );
    ( "policies.evacuation",
      [
        Alcotest.test_case "ecc handlers" `Quick test_ecc_handlers;
        Alcotest.test_case "evacuation enomem defers tail" `Quick
          test_evacuation_enomem_defers_tail;
        QCheck_alcotest.to_alcotest prop_evacuation_conserves_frames;
      ] );
    ( "policies.spec",
      [
        Alcotest.test_case "names" `Quick test_spec_names;
        Alcotest.test_case "parse" `Quick test_spec_parse;
        Alcotest.test_case "runtime selectable" `Quick test_spec_runtime_selectable;
        Alcotest.test_case "name roundtrip" `Quick test_spec_roundtrip;
      ] );
    ( "policies.internal",
      [
        Alcotest.test_case "map page" `Quick test_internal_map_page;
        Alcotest.test_case "map replaces and frees" `Quick test_internal_map_replaces_and_frees;
        Alcotest.test_case "migrate" `Quick test_internal_migrate;
        Alcotest.test_case "migrate noop same node" `Quick test_internal_migrate_noop_same_node;
        Alcotest.test_case "migrate unmapped" `Quick test_internal_migrate_unmapped;
        Alcotest.test_case "migrate preserves protection" `Quick
          test_internal_migrate_preserves_protection;
      ] );
    ( "policies.manager",
      [
        Alcotest.test_case "round-4k boot" `Quick test_manager_round4k_boot;
        Alcotest.test_case "round-1g boot" `Quick test_manager_round1g_boot;
        Alcotest.test_case "first-touch boot lazy" `Quick test_manager_first_touch_boot_lazy;
        Alcotest.test_case "first-touch fault placement" `Quick
          test_manager_first_touch_fault_places_locally;
        Alcotest.test_case "set_policy hypercall" `Quick test_manager_set_policy;
        Alcotest.test_case "page ops invalidate" `Quick test_manager_page_ops_invalidate;
        Alcotest.test_case "reallocated left in place" `Quick test_manager_page_ops_reallocated_left;
        Alcotest.test_case "inert without first-touch" `Quick
          test_manager_page_ops_inert_without_first_touch;
        Alcotest.test_case "release free pages" `Quick test_manager_release_free_range_batches;
        QCheck_alcotest.to_alcotest prop_release_range_matches_list_path;
        Alcotest.test_case "boundary work due" `Quick test_manager_boundary_due;
      ] );
    ( "policies.carrefour",
      [
        Alcotest.test_case "interleave on overload" `Quick test_carrefour_interleave_on_overload;
        Alcotest.test_case "locality on saturation" `Quick test_carrefour_locality_on_saturation;
        Alcotest.test_case "idle does nothing" `Quick test_carrefour_idle_no_actions;
        Alcotest.test_case "budget" `Quick test_carrefour_respects_budget;
        Alcotest.test_case "min accesses" `Quick test_carrefour_min_accesses_filter;
        Alcotest.test_case "heat decay" `Quick test_carrefour_system_decay;
        Alcotest.test_case "top-k readout = full sort" `Quick test_carrefour_topk_matches_sort;
        Alcotest.test_case "end-to-end migration" `Quick test_carrefour_end_to_end_migration;
        Alcotest.test_case "replication mechanics" `Quick test_carrefour_replication_mechanics;
        Alcotest.test_case "write collapses replicas" `Quick test_carrefour_write_collapses_replica;
        Alcotest.test_case "migrate collapses replicas" `Quick
          test_carrefour_migrate_collapses_replica;
        Alcotest.test_case "replication decision" `Quick test_carrefour_replication_decision;
        Alcotest.test_case "replication off by default" `Quick
          test_carrefour_replication_off_by_default;
        QCheck_alcotest.to_alcotest prop_carrefour_actions_within_budget_and_hot;
        Alcotest.test_case "wide sample counts stored nodes" `Quick test_carrefour_wide_sample;
        Alcotest.test_case "node_of" `Quick test_carrefour_node_of;
        QCheck_alcotest.to_alcotest prop_carrefour_decide_matches_oracle;
        QCheck_alcotest.to_alcotest prop_carrefour_heat_table_cache;
        QCheck_alcotest.to_alcotest prop_carrefour_heat_table_eager;
        QCheck_alcotest.to_alcotest prop_carrefour_unranked_readout_unscaled;
        Alcotest.test_case "reader share on subnormal counts" `Quick
          test_carrefour_reader_share_subnormal;
        QCheck_alcotest.to_alcotest prop_carrefour_decide_permutation;
        QCheck_alcotest.to_alcotest prop_carrefour_capped_decide;
      ] );
    ("policies.promote", [ QCheck_alcotest.to_alcotest prop_promote_scan_matches_oracle ]);
  ]
