(* Tests for the fault-injection subsystem and graceful degradation:
   plan parsing, injector determinism, queue fault hooks and
   re-entrancy, breaker escalation, frame-accounting under random fault
   schedules, and whole-engine behaviour under injection. *)

(* ------------------------------- plans ----------------------------- *)

let test_plan_parse_roundtrip () =
  List.iter
    (fun s ->
      let p = Faults.Plan.of_string_exn s in
      let s' = Faults.Plan.to_string p in
      let p' = Faults.Plan.of_string_exn s' in
      Alcotest.(check string) ("round-trip " ^ s) s' (Faults.Plan.to_string p'))
    [
      "migrate=1.0";
      "alloc=0.3@50-150,stall=0.01";
      "node-off=2@100-";
      "batch-loss=0.5,op-drop=0.05,hypercall=0.2,stall=0.1";
      "alloc=0.15,migrate=0.5";
      "ecc-ce=0.5,ecc-ue=0.01";
      "node_fail=1.0@50-150";
      "node-fail=0.5@10";
    ]

let test_plan_parse_empty () =
  Alcotest.(check bool) "none" true (Faults.Plan.is_empty (Faults.Plan.of_string_exn "none"));
  Alcotest.(check bool) "blank" true (Faults.Plan.is_empty (Faults.Plan.of_string_exn ""))

let test_plan_parse_errors () =
  List.iter
    (fun s ->
      match Faults.Plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should not parse" s
      | Error _ -> ())
    [ "alloc=1.5"; "migrate=-0.1"; "bogus=0.1"; "migrate"; "alloc=0.1@9-3"; "alloc=abc" ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_plan_unknown_site_lists_valid () =
  (* The unknown-site error is the discovery surface for the grammar:
     it must name the bad site and enumerate every valid one.  [iommu]
     is no site: no engine run ever reaches a passthrough transfer. *)
  List.iter
    (fun site ->
      match Faults.Plan.of_string (site ^ "=0.1") with
      | Ok _ -> Alcotest.failf "%s site should not parse" site
      | Error msg ->
          Alcotest.(check string) "exact message"
            (Printf.sprintf "unknown fault site %S (valid sites: %s)" site
               (String.concat ", " Faults.Plan.valid_site_names))
            msg;
          List.iter
            (fun site ->
              Alcotest.(check bool) (Printf.sprintf "message lists %s" site) true
                (contains ~sub:site msg))
            [ "ecc-ce"; "ecc-ue"; "node_fail"; "alloc"; "migrate" ])
    [ "bogus"; "iommu" ];
  Alcotest.(check bool) "iommu is not a valid site" false
    (List.mem "iommu" Faults.Plan.valid_site_names)

let test_plan_ras_rate_range () =
  List.iter
    (fun s ->
      match Faults.Plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should not parse" s
      | Error msg ->
          Alcotest.(check bool) (s ^ " names the range") true
            (contains ~sub:"outside [0, 1]" msg))
    [ "ecc-ce=1.5"; "ecc-ue=-0.1"; "node_fail=2.0"; "node-fail=-1" ]

let test_plan_validate_window () =
  let bad =
    [ Faults.Plan.spec ~from_epoch:10 ~until_epoch:5 (Faults.Plan.Migrate_enomem 0.5) ]
  in
  match Faults.Plan.validate bad with
  | Ok _ -> Alcotest.fail "inverted window should not validate"
  | Error _ -> ()

(* ------------------------------ injector --------------------------- *)

let all_sites_plan =
  Faults.Plan.of_string_exn
    "alloc=0.5,migrate=0.5,batch-loss=0.5,op-drop=0.5,hypercall=0.5,stall=0.5"

(* The stall site asked for one running vCPU. *)
let stalls inj = Faults.Injector.vcpu_stalls inj ~finish:[| -1.0 |] ~stalled:[| false |]

(* One fixed interleaved query trace: the injector's guarantee is that
   the same plan, seed and query sequence give the same answers. *)
let query_trace inj =
  let out = ref [] in
  for epoch = 0 to 20 do
    Faults.Injector.set_epoch inj epoch;
    List.iter
      (fun b -> out := b :: !out)
      [
        Faults.Injector.alloc_fails inj ~node:(epoch mod 8);
        Faults.Injector.migrate_fails inj;
        Faults.Injector.batch_lost inj ~ops:16;
        Faults.Injector.op_dropped inj;
        Faults.Injector.hypercall_fails inj;
        stalls inj;
      ]
  done;
  List.rev !out

let test_injector_deterministic () =
  let a = query_trace (Faults.Injector.create ~seed:1234 all_sites_plan) in
  let b = query_trace (Faults.Injector.create ~seed:1234 all_sites_plan) in
  Alcotest.(check (list bool)) "same seed, same trace" a b;
  let c = query_trace (Faults.Injector.create ~seed:1235 all_sites_plan) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_injector_boot_quiet () =
  (* Epoch -1 (boot) never fires, even at rate 1.0. *)
  let plan = Faults.Plan.of_string_exn "alloc=1.0,migrate=1.0,stall=1.0" in
  let inj = Faults.Injector.create ~seed:7 plan in
  Alcotest.(check bool) "alloc quiet" false (Faults.Injector.alloc_fails inj ~node:0);
  Alcotest.(check bool) "migrate quiet" false (Faults.Injector.migrate_fails inj);
  Alcotest.(check bool) "stall quiet" false (stalls inj);
  Alcotest.(check int) "nothing injected" 0 (Faults.Injector.total_injected inj)

let test_injector_window () =
  let inj = Faults.Injector.create ~seed:7 (Faults.Plan.of_string_exn "alloc=1.0@5-10") in
  List.iter
    (fun (epoch, expect) ->
      Faults.Injector.set_epoch inj epoch;
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d" epoch)
        expect
        (Faults.Injector.alloc_fails inj ~node:0))
    [ (4, false); (5, true); (9, true); (10, false) ]

let test_injector_node_offline () =
  let inj = Faults.Injector.create ~seed:7 (Faults.Plan.of_string_exn "node-off=2") in
  Faults.Injector.set_epoch inj 0;
  Alcotest.(check bool) "node 2 down" true (Faults.Injector.alloc_fails inj ~node:2);
  Alcotest.(check bool) "node 1 up" false (Faults.Injector.alloc_fails inj ~node:1)

let test_injector_empty_disabled () =
  let inj = Faults.Injector.create ~seed:7 Faults.Plan.empty in
  Alcotest.(check bool) "disabled" false (Faults.Injector.enabled inj);
  Faults.Injector.set_epoch inj 3;
  Alcotest.(check bool) "never fires" false (Faults.Injector.migrate_fails inj)

(* Random plans: one to four specs of any site, bounded or open windows. *)
let gen_plan =
  let open QCheck.Gen in
  let rate = float_bound_inclusive 1.0 in
  let site =
    oneof
      [
        map (fun r -> Faults.Plan.Alloc_flaky r) rate;
        map (fun n -> Faults.Plan.Node_offline n) (int_bound 7);
        map (fun r -> Faults.Plan.Migrate_enomem r) rate;
        map (fun r -> Faults.Plan.Batch_loss r) rate;
        map (fun r -> Faults.Plan.Op_drop r) rate;
        map (fun r -> Faults.Plan.Hypercall_flaky r) rate;
        map (fun r -> Faults.Plan.Vcpu_stall r) rate;
        map (fun r -> Faults.Plan.Ecc_ce r) rate;
        map (fun r -> Faults.Plan.Ecc_ue r) rate;
        map (fun r -> Faults.Plan.Node_fail r) rate;
      ]
  in
  let spec =
    map3
      (fun site from_epoch span ->
        match span with
        | None -> Faults.Plan.spec ~from_epoch site
        | Some n -> Faults.Plan.spec ~from_epoch ~until_epoch:(from_epoch + 1 + n) site)
      site (int_bound 40) (opt (int_bound 30))
  in
  list_size (int_range 1 4) spec

(* Whether no window of [plan] is armed at [epoch]: neither a spec's own
   window nor a node failure's resolved one, whose end defaults to 50
   epochs after its start (the injector's drain window) and never comes
   for a permanent failure (rate 1.0). *)
let dormant plan epoch =
  let armed ~from ~until =
    epoch >= from && match until with None -> true | Some u -> epoch < u
  in
  List.for_all
    (fun (s : Faults.Plan.spec) ->
      let from = s.Faults.Plan.window.Faults.Plan.from_epoch in
      let until = s.Faults.Plan.window.Faults.Plan.until_epoch in
      (not (armed ~from ~until))
      &&
      match s.Faults.Plan.site with
      | Faults.Plan.Node_fail rate ->
          let until =
            if rate >= 1.0 then None else Some (Option.value until ~default:(from + 50))
          in
          not (armed ~from ~until)
      | _ -> true)
    plan

(* A dormant plan perturbs nothing: at an epoch where no window is
   armed, every site query answers false (or no events, full bandwidth)
   and leaves the injector — stream, stats, node-fault bookkeeping —
   exactly where an untouched twin's is. *)
let prop_unarmed_queries_inert =
  QCheck.Test.make ~name:"injector: unarmed epochs answer no and draw nothing" ~count:500
    QCheck.(
      triple
        (make ~print:Faults.Plan.to_string gen_plan)
        (int_range 0 100) small_nat)
    (fun (plan, epoch, seed) ->
      let make () =
        let inj = Faults.Injector.create ~seed plan in
        Faults.Injector.assign_node_targets inj ~nodes:8 ();
        Faults.Injector.set_epoch inj epoch;
        inj
      in
      let inj = make () and twin = make () in
      QCheck.assume (dormant plan epoch);
      let quiet =
        List.for_all
          (fun node ->
            (not (Faults.Injector.alloc_fails inj ~node))
            && (not (Faults.Injector.node_failing inj ~node))
            && (not (Faults.Injector.node_offline inj ~node))
            && Faults.Injector.node_bandwidth_factor inj ~node = 1.0)
          (List.init 8 Fun.id)
        && (not (Faults.Injector.migrate_fails inj))
        && (not (Faults.Injector.batch_lost inj ~ops:4))
        && (not (Faults.Injector.op_dropped inj))
        && (not (Faults.Injector.hypercall_fails inj))
        && (not (stalls inj))
        && Faults.Injector.ecc_events inj ~frames:4096 = []
      in
      quiet && Marshal.to_string inj [] = Marshal.to_string twin [])

(* ---------------------------- RAS sites ---------------------------- *)

let test_injector_ecc_deterministic () =
  let plan = Faults.Plan.of_string_exn "ecc-ce=0.5,ecc-ue=0.2" in
  let trace seed =
    let inj = Faults.Injector.create ~seed plan in
    let out = ref [] in
    for epoch = 0 to 40 do
      Faults.Injector.set_epoch inj epoch;
      out := Faults.Injector.ecc_events inj ~frames:4096 :: !out
    done;
    List.rev !out
  in
  let a = trace 1234 in
  Alcotest.(check bool) "same seed, same events" true (a = trace 1234);
  Alcotest.(check bool) "different seed differs" true (a <> trace 1235);
  Alcotest.(check bool) "both classes fire" true
    (List.exists (List.exists (function Faults.Injector.Ce _ -> true | _ -> false)) a
    && List.exists (List.exists (function Faults.Injector.Ue _ -> true | _ -> false)) a);
  List.iter
    (List.iter (function
      | Faults.Injector.Ce pfn | Faults.Injector.Ue pfn ->
          Alcotest.(check bool) "pfn in range" true (pfn >= 0 && pfn < 4096)))
    a;
  (* Boot (epoch -1) never fires. *)
  let inj = Faults.Injector.create ~seed:7 plan in
  Alcotest.(check bool) "quiet at boot" true (Faults.Injector.ecc_events inj ~frames:4096 = [])

let test_injector_node_fail_lifecycle () =
  let inj =
    Faults.Injector.create ~seed:5 (Faults.Plan.of_string_exn "node_fail=1.0@10-30")
  in
  Faults.Injector.assign_node_targets inj ~candidates:[| 3 |] ~nodes:8 ();
  Alcotest.(check (list int)) "candidates pin the target" [ 3 ]
    (Faults.Injector.node_fail_targets inj);
  (* Idempotent: a second call never re-draws. *)
  Faults.Injector.assign_node_targets inj ~candidates:[| 6 |] ~nodes:8 ();
  Alcotest.(check (list int)) "no re-draw" [ 3 ] (Faults.Injector.node_fail_targets inj);
  Faults.Injector.set_epoch inj 5;
  Alcotest.(check bool) "healthy before window" false (Faults.Injector.node_failing inj ~node:3);
  Alcotest.(check (float 1e-9)) "full bandwidth before" 1.0
    (Faults.Injector.node_bandwidth_factor inj ~node:3);
  Faults.Injector.set_epoch inj 10;
  Alcotest.(check bool) "failing at window open" true (Faults.Injector.node_failing inj ~node:3);
  Alcotest.(check bool) "not yet offline" false (Faults.Injector.node_offline inj ~node:3);
  Alcotest.(check bool) "failing node vetoes alloc" true
    (Faults.Injector.alloc_fails inj ~node:3);
  Alcotest.(check bool) "other nodes unaffected" false (Faults.Injector.node_failing inj ~node:0);
  let bw10 = Faults.Injector.node_bandwidth_factor inj ~node:3 in
  Faults.Injector.set_epoch inj 20;
  let bw20 = Faults.Injector.node_bandwidth_factor inj ~node:3 in
  Alcotest.(check bool) "bandwidth collapses monotonically" true (bw20 < bw10 && bw10 < 1.0);
  Faults.Injector.set_epoch inj 30;
  Alcotest.(check bool) "permanent failure persists" true
    (Faults.Injector.node_failing inj ~node:3);
  Alcotest.(check bool) "offline once the window closes" true
    (Faults.Injector.node_offline inj ~node:3);
  Alcotest.(check (float 1e-9)) "bandwidth fully collapsed" 0.0
    (Faults.Injector.node_bandwidth_factor inj ~node:3);
  Alcotest.(check int) "one node failure counted" 1
    (Faults.Injector.stats inj).Faults.Injector.node_failures

let test_injector_node_fail_transient_recovers () =
  (* rate < 1.0: the node degrades across the window, then recovers —
     it never goes offline for good. *)
  let inj =
    Faults.Injector.create ~seed:5 (Faults.Plan.of_string_exn "node_fail=0.5@10-20")
  in
  Faults.Injector.assign_node_targets inj ~candidates:[| 2 |] ~nodes:8 ();
  Faults.Injector.set_epoch inj 15;
  Alcotest.(check bool) "failing inside window" true (Faults.Injector.node_failing inj ~node:2);
  Alcotest.(check bool) "degraded" true
    (Faults.Injector.node_bandwidth_factor inj ~node:2 < 1.0);
  Faults.Injector.set_epoch inj 20;
  Alcotest.(check bool) "recovered after window" false (Faults.Injector.node_failing inj ~node:2);
  Alcotest.(check bool) "never offline" false (Faults.Injector.node_offline inj ~node:2);
  Alcotest.(check (float 1e-9)) "bandwidth restored" 1.0
    (Faults.Injector.node_bandwidth_factor inj ~node:2)

(* ---------------------------- p2m hardening ------------------------ *)

let test_p2m_rejects_negative_mfn () =
  let p2m = Xen.P2m.create ~frames:8 () in
  Alcotest.check_raises "negative mfn" (Invalid_argument "P2m.set: negative mfn") (fun () ->
      Xen.P2m.set p2m 0 ~mfn:(-2) ~writable:true)

let test_p2m_check_consistent () =
  let p2m = Xen.P2m.create ~frames:8 () in
  Alcotest.(check bool) "fresh" true (Xen.P2m.check_consistent p2m);
  Xen.P2m.set p2m 0 ~mfn:11 ~writable:true;
  Xen.P2m.set p2m 3 ~mfn:12 ~writable:false;
  ignore (Xen.P2m.invalidate p2m 0);
  Alcotest.(check bool) "after churn" true (Xen.P2m.check_consistent p2m);
  Alcotest.(check int) "mapped count" 1 (Xen.P2m.mapped_count p2m)

(* --------------------------- pv queue faults ----------------------- *)

let test_queue_reentrant_flush () =
  (* Regression: [record] must be callable from inside the flush
     handler (the partition is snapshotted and emptied first). *)
  let q = ref None in
  let flushed = ref 0 in
  let flush ops =
    incr flushed;
    if !flushed = 1 then
      (* Re-enter with an op landing in the same (only) partition. *)
      Guest.Pv_queue.record (Option.get !q) (Guest.Pv_queue.Alloc (Array.length ops + 100));
    0.0
  in
  let queue = Guest.Pv_queue.create ~partitions:1 ~capacity:4 ~frames:128 ~flush () in
  q := Some queue;
  for pfn = 0 to 3 do
    Guest.Pv_queue.record queue (Guest.Pv_queue.Alloc pfn)
  done;
  Alcotest.(check int) "one flush" 1 !flushed;
  Alcotest.(check int) "re-entered op queued" 1 (Guest.Pv_queue.pending queue);
  Alcotest.(check int) "four ops sent" 4 (Guest.Pv_queue.stats queue).Guest.Pv_queue.ops_sent

let test_queue_drop_hook () =
  (* Drop draws happen at flush time, once per op surviving dedup: the
     first full partition (pfns 0-3) loses its first two ops to the
     drop hook and ships the other two; the flush_all remainder (pfns
     4-5) ships whole.  Two batches, four ops sent, two drops. *)
  let sent = ref 0 in
  let queue =
    Guest.Pv_queue.create ~partitions:1 ~capacity:4 ~frames:16
      ~flush:(fun ops ->
        sent := !sent + Array.length ops;
        0.0)
      ()
  in
  let drops = ref 2 in
  Guest.Pv_queue.set_fault_hooks queue ~drop_op:(fun _ ->
      decr drops;
      !drops >= 0);
  for pfn = 0 to 5 do
    Guest.Pv_queue.record queue (Guest.Pv_queue.Alloc pfn)
  done;
  Guest.Pv_queue.flush_all queue;
  let stats = Guest.Pv_queue.stats queue in
  Alcotest.(check int) "two dropped" 2 stats.Guest.Pv_queue.dropped;
  Alcotest.(check int) "two batches" 2 stats.Guest.Pv_queue.flushes;
  Alcotest.(check int) "survivors reached the hypervisor" 4 !sent;
  Alcotest.(check int) "ops_sent counted" 4 stats.Guest.Pv_queue.ops_sent

(* Most-recent-op-wins, as a property: what a queue delivers to the
   hypervisor names every queued page exactly once, with its latest
   op, even when small capacities split the stream across flushes of
   different partitions. *)
let prop_replay_most_recent_wins =
  QCheck.Test.make ~name:"pv_queue replay: most recent op wins" ~count:500
    QCheck.(pair (int_range 1 4) (list (pair bool (int_range 0 7))))
    (fun (capacity, spec) ->
      (* Per page, the op the hypervisor currently holds: a later
         flush of the page's partition overrides an earlier one. *)
      let applied = Hashtbl.create 8 in
      let queue =
        Guest.Pv_queue.create ~partitions:2 ~capacity ~frames:8
          ~flush:(fun ops ->
            let seen = Hashtbl.create 8 in
            Array.iter
              (fun op ->
                let pfn = Guest.Pv_queue.op_pfn op in
                if Hashtbl.mem seen pfn then
                  QCheck.Test.fail_reportf "pfn %d delivered twice in one batch" pfn;
                Hashtbl.replace seen pfn ();
                Hashtbl.replace applied pfn op)
              ops;
            0.0)
          ()
      in
      List.iter
        (fun (alloc, pfn) ->
          Guest.Pv_queue.record queue
            (if alloc then Guest.Pv_queue.Alloc pfn else Guest.Pv_queue.Release pfn))
        spec;
      Guest.Pv_queue.flush_all queue;
      List.iter
        (fun (_, pfn) ->
          if not (Hashtbl.mem applied pfn) then
            QCheck.Test.fail_reportf "pfn %d never delivered" pfn)
        spec;
      Hashtbl.iter
        (fun pfn op ->
          let last =
            List.fold_left
              (fun acc (alloc, p) -> if p = pfn then Some alloc else acc)
              None spec
          in
          match (last, op) with
          | Some true, Guest.Pv_queue.Alloc _ | Some false, Guest.Pv_queue.Release _ -> ()
          | Some _, _ -> QCheck.Test.fail_reportf "pfn %d got the wrong op" pfn
          | None, _ -> QCheck.Test.fail_reportf "pfn %d delivered but never queued" pfn)
        applied;
      true)

(* ------------------------- breaker escalation ---------------------- *)

let harness_system () = Xen.System.create ~page_scale:16384 (Numa.Amd48.topology ())

let harness_domain ?(gib = 4) s =
  Xen.System.create_domain s ~name:"chaos" ~kind:Xen.Domain.DomU ~vcpus:6
    ~mem_bytes:(gib * 1024 * 1024 * 1024) ()

let test_breaker_escalates_to_static () =
  let s = harness_system () in
  let d = harness_domain s in
  let m =
    Policies.Manager.attach s d ~boot:Policies.Spec.first_touch_carrefour
      ~rng:(Sim.Rng.create ~seed:3)
  in
  let inj = Faults.Injector.create ~seed:3 (Faults.Plan.of_string_exn "migrate=1.0") in
  Faults.Injector.install inj s;
  (* Map a few pages so migrations are attempted for real. *)
  for pfn = 0 to 9 do
    ignore (Policies.Internal.map_page s d ~pfn ~node:0)
  done;
  let epoch = ref 0 in
  while (Policies.Manager.degrade m).Policies.Manager.breaker_level < 2 && !epoch < 200 do
    Faults.Injector.set_epoch inj !epoch;
    for pfn = 0 to 9 do
      ignore (Policies.Manager.migrate_resilient m ~pfn ~node:(1 + (pfn mod 7)))
    done;
    Policies.Manager.epoch_tick m ~epoch:!epoch ();
    incr epoch
  done;
  let dg = Policies.Manager.degrade m in
  Alcotest.(check int) "statically degraded" 2 dg.Policies.Manager.breaker_level;
  Alcotest.(check bool) "several trips" true (dg.Policies.Manager.breaker_trips >= 4);
  Alcotest.(check bool) "retries happened" true (dg.Policies.Manager.migrate_retries > 0);
  Alcotest.(check (option Alcotest.reject)) "carrefour shed" None (Policies.Manager.carrefour m);
  Alcotest.(check int) "retry queue cleared" 0 (Policies.Manager.pending_migrations m);
  Alcotest.(check bool) "policy renamed" true
    (String.length d.Xen.Domain.policy_name > 0
    && String.ends_with ~suffix:"+degraded:round-1g" d.Xen.Domain.policy_name)

let test_deferred_drains_when_pressure_lifts () =
  let s = harness_system () in
  let d = harness_domain s in
  let m =
    Policies.Manager.attach s d ~boot:Policies.Spec.first_touch
      ~rng:(Sim.Rng.create ~seed:4)
  in
  (* Migration failures for epochs [0, 3): pages are deferred, then the
     pressure lifts and the drain completes them. *)
  let inj = Faults.Injector.create ~seed:4 (Faults.Plan.of_string_exn "migrate=1.0@0-3") in
  Faults.Injector.install inj s;
  for pfn = 0 to 7 do
    ignore (Policies.Internal.map_page s d ~pfn ~node:0)
  done;
  Faults.Injector.set_epoch inj 0;
  for pfn = 0 to 7 do
    ignore (Policies.Manager.migrate_resilient m ~pfn ~node:1)
  done;
  let dg = Policies.Manager.degrade m in
  Alcotest.(check int) "all deferred" 8 dg.Policies.Manager.deferred;
  Alcotest.(check int) "queued" 8 (Policies.Manager.pending_migrations m);
  for epoch = 3 to 5 do
    Faults.Injector.set_epoch inj epoch;
    Policies.Manager.epoch_tick m ~epoch ()
  done;
  Alcotest.(check int) "all drained" 8 (Policies.Manager.degrade m).Policies.Manager.drained;
  Alcotest.(check int) "queue empty" 0 (Policies.Manager.pending_migrations m);
  List.iter
    (fun pfn ->
      Alcotest.(check (option int)) "page reached node 1" (Some 1)
        (Policies.Manager.node_of_pfn m pfn))
    [ 0; 3; 7 ]

(* The drain's ENOMEM path.  Eight deferred migrations form four
   (src, dst) groups: (0,1) = [13; 3], (0,2) = [11; 14; 15],
   (0,3) = [10; 16] and (1,2) = [12], popped interleaved.  Node 2 has
   one free frame, so (0,1) moves, (0,2) moves its first page and
   stops the drain.  The queue then holds the failing group's unmoved
   tail, followed by the entries of every later group in the order
   they were popped — observed by homing them by hand and letting the
   next drain resolve them in queue order. *)
let test_drain_enomem_requeues () =
  let s = harness_system () in
  let d = harness_domain s in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.first_touch ~rng:(Sim.Rng.create ~seed:5) in
  let inj = Faults.Injector.create ~seed:5 (Faults.Plan.of_string_exn "migrate=1.0@0-1") in
  Faults.Injector.install inj s;
  let machine = s.Xen.System.machine in
  let popped = [ (10, 3); (11, 2); (12, 2); (13, 1); (14, 2); (3, 1); (15, 2); (16, 3) ] in
  List.iter
    (fun (pfn, _) -> ignore (Policies.Internal.map_page s d ~pfn ~node:(if pfn = 12 then 1 else 0)))
    popped;
  Faults.Injector.set_epoch inj 0;
  List.iter (fun (pfn, node) -> ignore (Policies.Manager.migrate_resilient m ~pfn ~node)) popped;
  Alcotest.(check int) "all deferred" 8 (Policies.Manager.pending_migrations m);
  let rec fill acc =
    match Memory.Machine.alloc_frame machine ~node:2 with Some mfn -> fill (mfn :: acc) | None -> acc
  in
  let held = match fill [] with mfn :: rest -> Memory.Machine.free machine ~mfn ~order:0; rest | [] -> [] in
  let drains () =
    let stream = Obs.Stream.create ~label:"drain" () in
    Xen.System.set_obs s (Some stream);
    fun () ->
      List.filter_map
        (fun (_, (e : Obs.Event.t)) ->
          if e.Obs.Event.cls = Obs.Event.Migrate_drain then Some (e.Obs.Event.pfn, e.Obs.Event.node)
          else None)
        (Obs.Stream.events stream)
  in
  let events = drains () in
  Faults.Injector.set_epoch inj 1;
  Policies.Manager.epoch_tick m ~epoch:1 ();
  Alcotest.(check (list (pair int int))) "(0,1) whole, (0,2) head" [ (3, 1); (13, 1); (11, 2) ] (events ());
  Alcotest.(check int) "drained" 3 (Policies.Manager.degrade m).Policies.Manager.drained;
  Alcotest.(check int) "requeued" 5 (Policies.Manager.pending_migrations m);
  List.iter
    (fun pfn -> Alcotest.(check (option int)) "left in place" (Some 0) (Policies.Manager.node_of_pfn m pfn))
    [ 14; 15; 10; 16 ];
  List.iter (fun mfn -> Memory.Machine.free machine ~mfn ~order:0) held;
  let requeued = [ (14, 2); (15, 2); (10, 3); (12, 2); (16, 3) ] in
  List.iter (fun (pfn, node) -> ignore (Policies.Internal.migrate_page s d ~pfn ~node)) requeued;
  let events = drains () in
  (* The failure tripped the breaker; tick once it has cooled down. *)
  Policies.Manager.epoch_tick m ~epoch:31 ();
  Alcotest.(check (list (pair int int))) "queue order" requeued (events ());
  Alcotest.(check int) "queue empty" 0 (Policies.Manager.pending_migrations m)

let test_reconcile_heals_lost_batch () =
  let s = harness_system () in
  let d = harness_domain s in
  let m =
    Policies.Manager.attach s d ~boot:Policies.Spec.first_touch
      ~rng:(Sim.Rng.create ~seed:5)
  in
  for pfn = 0 to 3 do
    ignore (Policies.Internal.map_page s d ~pfn ~node:0)
  done;
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  (* The guest freed pages 0-3 but the release batch was lost: the P2M
     still maps them.  The sweep heals exactly those entries; free pfn
     10 was never mapped and is left alone. *)
  let healed = Policies.Manager.reconcile m ~guest_free:[ 3; 10; 0; 2; 1 ] in
  Alcotest.(check int) "four healed" 4 healed;
  Alcotest.(check int) "frames returned" (free0 + 4) (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check int) "p2m empty" 0 (Xen.P2m.mapped_count d.Xen.Domain.p2m);
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent d.Xen.Domain.p2m)

(* The RAS invariant the run-end audit checks: no P2M may still map an
   offlined frame.  Simulate the bug it guards against — the frame
   backing pfn 5 is freed behind the P2M's back and retired.  The sweep
   checks no invariant and heals only its guest-free pfns; the audit
   names the frame and the pfn. *)
let test_audit_rejects_offlined_mapping () =
  let s = harness_system () in
  let d = harness_domain s in
  let m =
    Policies.Manager.attach s d ~boot:Policies.Spec.first_touch
      ~rng:(Sim.Rng.create ~seed:6)
  in
  let machine = s.Xen.System.machine in
  ignore (Policies.Internal.map_page s d ~pfn:2 ~node:0);
  let mfn =
    match Policies.Internal.map_page s d ~pfn:5 ~node:0 with
    | Ok mfn -> mfn
    | Error `Enomem -> Alcotest.fail "harness machine out of memory"
  in
  Policies.Manager.audit m;
  Memory.Machine.free machine ~mfn ~order:0;
  Alcotest.(check bool) "frame retired" true (Memory.Machine.offline_mfn machine mfn = `Offlined);
  Alcotest.(check int) "reconcile is silent" 1 (Policies.Manager.reconcile m ~guest_free:[ 2 ]);
  Alcotest.(check (option int)) "offlined frame left mapped" (Some 0)
    (Policies.Manager.node_of_pfn m 5);
  Alcotest.check_raises "names the mfn and the pfn"
    (Invalid_argument (Printf.sprintf "Manager.audit: offlined mfn %d still mapped at pfn 5" mfn))
    (fun () -> Policies.Manager.audit m);
  (* Healing that mapping frees the retired frame again: the allocator's
     double free is reported with the same two numbers. *)
  Alcotest.check_raises "healing it names them too"
    (Invalid_argument
       (Printf.sprintf "Internal.free_mapped: offlined mfn %d still mapped at pfn 5" mfn))
    (fun () -> ignore (Policies.Manager.reconcile m ~guest_free:[ 5 ]))

(* The sweep reads the guest free list instead of testing every mapped
   pfn: that list must hold exactly the pfns [is_free] reports, once
   each, through any alloc/release sequence. *)
let prop_free_pfns_is_free_set =
  QCheck.Test.make ~name:"pfn_pool free list = is_free set" ~count:300
    QCheck.(triple (int_range 1 64) small_nat (list small_nat))
    (fun (frames, first_fresh, ops) ->
      let pool = Guest.Pfn_pool.create ~frames ~first_fresh:(first_fresh mod frames) () in
      let live = ref [] in
      let check () =
        let expected = List.filter (Guest.Pfn_pool.is_free pool) (List.init frames Fun.id) in
        let got = List.sort Int.compare (Guest.Pfn_pool.free_pfns pool) in
        if got <> expected then
          QCheck.Test.fail_reportf "free list [%s] <> is_free set [%s]"
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int expected))
      in
      List.iter
        (fun op ->
          (match !live with
          | _ :: _ when op mod 3 <> 0 ->
              (* Release an arbitrary live pfn, not only the newest. *)
              let pfn = List.nth !live (op mod List.length !live) in
              Guest.Pfn_pool.release pool pfn;
              live := List.filter (( <> ) pfn) !live
          | _ ->
              let pfn = Guest.Pfn_pool.alloc pool in
              if pfn >= 0 then live := pfn :: !live);
          check ())
        ops;
      true)

(* ---------------------- chaos accounting property ------------------ *)

(* One random fault schedule, driven end to end through the manager,
   the pv queue and the injector.  The invariant checked after every
   epoch is the frame-accounting reconciliation from the issue: frames
   either sit in the allocator's free pool or are reachable from the
   P2M — under any fault schedule, nothing leaks and nothing is freed
   twice. *)
let random_plan rng =
  let maybe p site = if Sim.Rng.bernoulli rng p then [ Faults.Plan.spec site ] else [] in
  let windowed p site =
    if Sim.Rng.bernoulli rng p then
      let from_epoch = Sim.Rng.int rng 20 in
      let until_epoch = from_epoch + 1 + Sim.Rng.int rng 30 in
      [ Faults.Plan.spec ~from_epoch ~until_epoch site ]
    else []
  in
  List.concat
    [
      maybe 0.6 (Faults.Plan.Alloc_flaky (Sim.Rng.float rng 0.4));
      windowed 0.3 (Faults.Plan.Node_offline (Sim.Rng.int rng 8));
      maybe 0.6 (Faults.Plan.Migrate_enomem (Sim.Rng.float rng 1.0));
      maybe 0.5 (Faults.Plan.Batch_loss (Sim.Rng.float rng 0.7));
      maybe 0.4 (Faults.Plan.Op_drop (Sim.Rng.float rng 0.2));
      maybe 0.4 (Faults.Plan.Hypercall_flaky (Sim.Rng.float rng 0.5));
      maybe 0.3 (Faults.Plan.Vcpu_stall (Sim.Rng.float rng 0.1));
    ]

let check_accounting ~msg s d =
  let machine = s.Xen.System.machine in
  let total = Memory.Machine.total_frames machine in
  let free = Memory.Machine.free_frames machine in
  let mapped = Xen.P2m.mapped_count d.Xen.Domain.p2m in
  if free + mapped <> total then
    QCheck.Test.fail_reportf "%s: %d free + %d mapped <> %d total (leak or double free)" msg
      free mapped total;
  if not (Xen.P2m.check_consistent d.Xen.Domain.p2m) then
    QCheck.Test.fail_reportf "%s: P2M mapped-count out of sync" msg

(* Test-only oracle: the reconcile sweep's stale set computed the slow
   way, a walk of the whole P2M keeping every mapped pfn the guest pool
   reports free.  Prepending during the ascending walk leaves it in
   descending pfn order, the order the sweep heals in. *)
let full_sweep_stale p2m pool =
  let stale = ref [] in
  Xen.P2m.iter_mapped p2m (fun pfn _ ->
      if Guest.Pfn_pool.is_free pool pfn then stale := pfn :: !stale);
  !stale

(* Differential check of one sweep against the oracle: it must heal
   exactly the oracle's pfns, and its P2M update stream must be one
   [Cleared] per stale pfn in oracle order, each preceded by the
   [Splintered] of its extent when a superpage still covers it.  Each
   clear is followed by that frame's free, so this pins the free order
   too. *)
let checked_reconcile ~msg m d pool =
  let p2m = d.Xen.Domain.p2m in
  let stale = full_sweep_stale p2m pool in
  let sp = Xen.P2m.sp_frames p2m in
  let splintered = ref [] in
  let expected =
    List.concat_map
      (fun pfn ->
        let base = pfn - (pfn mod sp) in
        if Xen.P2m.is_superpage p2m pfn && not (List.mem base !splintered) then begin
          splintered := base :: !splintered;
          [ Xen.P2m.Splintered { pfn = base }; Xen.P2m.Cleared { pfn } ]
        end
        else [ Xen.P2m.Cleared { pfn } ])
      stale
  in
  let splinters0 = (Policies.Manager.stats m).Policies.Manager.splinters in
  let updates = ref [] in
  Xen.P2m.set_on_update p2m (Some (fun u -> updates := u :: !updates));
  let healed =
    Fun.protect
      ~finally:(fun () -> Xen.P2m.set_on_update p2m None)
      (fun () -> Policies.Manager.reconcile m ~guest_free:(Guest.Pfn_pool.free_pfns pool))
  in
  if healed <> List.length stale then
    QCheck.Test.fail_reportf "%s: healed %d, oracle stale set has %d" msg healed
      (List.length stale);
  if List.rev !updates <> expected then
    QCheck.Test.fail_reportf "%s: P2M update stream differs from the oracle's (%d vs %d updates)"
      msg (List.length !updates) (List.length expected);
  if (Policies.Manager.stats m).Policies.Manager.splinters - splinters0 <> List.length !splintered
  then QCheck.Test.fail_reportf "%s: splinter count differs from the oracle's" msg;
  if full_sweep_stale p2m pool <> [] then
    QCheck.Test.fail_reportf "%s: stale entries survived the sweep" msg

let run_chaos_schedule master_seed =
  let rng = Sim.Rng.create ~seed:master_seed in
  let plan = random_plan rng in
  (* One schedule in three boots round-1G with superpages at a page
     scale that keeps 4-frame superpage extents, so releases,
     migrations and reconcile sweeps splinter them. *)
  let superpages = Sim.Rng.bernoulli rng (1.0 /. 3.0) in
  let s =
    if superpages then Xen.System.create ~page_scale:128 (Numa.Amd48.topology ())
    else harness_system ()
  in
  let d = harness_domain s in
  let boot =
    if superpages then { Policies.Spec.round_1g with carrefour = true }
    else Policies.Spec.first_touch_carrefour
  in
  let m = Policies.Manager.attach ~superpages s d ~boot ~rng:(Sim.Rng.split rng) in
  let inj = Faults.Injector.create ~seed:master_seed plan in
  Faults.Injector.install inj s;
  let frames = Xen.P2m.frames d.Xen.Domain.p2m in
  let pool = Guest.Pfn_pool.create ~frames () in
  let queue =
    Guest.Pv_queue.create ~capacity:16 ~frames
      ~flush:(fun ops -> Policies.Manager.page_ops_hypercall m ops)
      ()
  in
  Faults.Injector.install_queue inj queue;
  let live = ref [] in
  for epoch = 0 to 39 do
    Faults.Injector.set_epoch inj epoch;
    for _ = 0 to 15 do
      match Sim.Rng.int rng 4 with
      | 0 | 1 ->
          (* Guest page churn: allocate, touch (hypervisor fault on an
             invalid entry), queue the alloc op. *)
          let pfn = Guest.Pfn_pool.alloc pool in
          if pfn >= 0 then begin
            Guest.Pv_queue.record queue (Guest.Pv_queue.Alloc pfn);
            (match Xen.P2m.get d.Xen.Domain.p2m pfn with
            | Xen.P2m.Invalid ->
                ignore
                  (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn
                     ~cpu:(Sim.Rng.int rng 48))
            | Xen.P2m.Mapped _ -> ());
            live := pfn :: !live
          end
      | 2 -> (
          match !live with
          | pfn :: rest ->
              Guest.Pfn_pool.release pool pfn;
              Guest.Pv_queue.record queue (Guest.Pv_queue.Release pfn);
              live := rest
          | [] -> ())
      | _ -> (
          match !live with
          | pfn :: _ ->
              ignore (Policies.Manager.migrate_resilient m ~pfn ~node:(Sim.Rng.int rng 8))
          | [] -> ())
    done;
    (* Mid-run sweeps also catch releases still queued, unflushed. *)
    if epoch mod 10 = 9 then
      checked_reconcile ~msg:(Printf.sprintf "sweep at epoch %d" epoch) m d pool;
    Policies.Manager.epoch_tick m ~epoch ~guest_free:(Guest.Pfn_pool.free_pfns pool) ();
    check_accounting ~msg:(Printf.sprintf "epoch %d" epoch) s d
  done;
  Guest.Pv_queue.flush_all queue;
  checked_reconcile ~msg:"final sweep" m d pool;
  check_accounting ~msg:"after reconcile" s d;
  true

let prop_chaos_frame_accounting =
  QCheck.Test.make ~name:"chaos: no frame leaks or double frees under random faults"
    ~count:500 QCheck.small_nat (fun n -> run_chaos_schedule (n * 7919))

(* ------------------------------ engine ----------------------------- *)

(* A shrunk wrmem so whole-engine chaos runs stay fast: same churn
   behaviour (15 us release period), a fraction of the work. *)
let tiny_app () =
  { (Workloads.Catalogue.get "wrmem") with
    Workloads.App.name = "wrmem-tiny"; footprint_mb = 128; native_seconds = 3.0 }

let eager_carrefour = Experiments.Chaos.eager_carrefour

(* A chaos-grid cell on the tiny app. *)
let chaos_cfg ?(seed = 11) ?(max_epochs = 2_000) plan =
  let vm =
    Engine.Config.vm ~threads:8 ~policy:Policies.Spec.first_touch_carrefour (tiny_app ())
  in
  Engine.Config.make ~seed ~max_epochs ~carrefour_config:eager_carrefour
    ~faults:(Faults.Plan.of_string_exn plan) ~mode:Engine.Config.Xen_plus [ vm ]

let chaos_run ?seed ?max_epochs plan = Engine.Runner.run (chaos_cfg ?seed ?max_epochs plan)

let test_engine_completes_under_full_migration_failure () =
  let r = chaos_run "alloc=0.3,migrate=1.0" in
  Alcotest.(check bool) "completed before the epoch cap" true (r.Engine.Result.epochs < 2_000);
  Alcotest.(check bool) "faults were injected" true (r.Engine.Result.faults_injected > 0);
  let d = (Engine.Result.single r).Engine.Result.degradation in
  Alcotest.(check bool) "fallback placements happened" true (d.Engine.Result.fallback_maps > 0)

let test_engine_clean_run_reports_no_degradation () =
  let r = chaos_run "none" in
  Alcotest.(check int) "no faults" 0 r.Engine.Result.faults_injected;
  Alcotest.(check bool) "no degradation" true
    ((Engine.Result.single r).Engine.Result.degradation = Engine.Result.no_degradation)

(* Every experiment grid runs its cells through [Runs.run_cell]: a
   cell that hits [max_epochs] fails the whole grid with the run's
   label and the cap (bench prints them as one stderr line and exits
   1), while a grid whose cells complete gets their plain results. *)
let test_capped_run_is_reported () =
  let cell ?max_epochs () () = Experiments.Runs.run_cell (chaos_cfg ?max_epochs "none") in
  Alcotest.check_raises "the capped cell fails its grid"
    (Experiments.Runs.Epoch_cap
       { label = Engine.Config.label (chaos_cfg ~max_epochs:5 "none"); max_epochs = 5 })
    (fun () -> ignore (Engine.Pool.run_all [| cell (); cell ~max_epochs:5 () |]));
  Alcotest.(check string) "the failure line"
    "capped hit the epoch cap (5 epochs) without completing"
    (Experiments.Runs.cap_message "capped" 5);
  let completed = Engine.Pool.run_all [| cell () |] in
  Alcotest.(check bool) "a completed cell passes" true
    (completed.(0).Engine.Result.epochs < 2_000
    && not (Experiments.Runs.hit_cap (chaos_cfg "none") completed.(0)));
  Alcotest.(check bool) "the cap itself counts as capped" true
    (Experiments.Runs.hit_cap (chaos_cfg ~max_epochs:5 "none") (chaos_run ~max_epochs:5 "none"))

let test_engine_jobs_bit_identical () =
  (* The chaos acceptance bar: a fixed-seed fault grid is bit-identical
     whatever the worker count. *)
  (* op-drop + batch-loss pins the flush-time drop draw: one draw per
     op surviving dedup, so the fault schedule — and hence the whole
     trace — is independent of how the queue was deduplicated. *)
  let plans =
    [| "none"; "alloc=0.3"; "alloc=0.3,migrate=1.0"; "batch-loss=0.5";
       "op-drop=0.4,batch-loss=0.3"; "ecc-ce=0.5,ecc-ue=0.05";
       "node_fail=1.0@50" |]
  in
  let tasks = Array.map (fun plan () -> chaos_run ~max_epochs:400 plan) plans in
  let seq = Engine.Pool.run_all ~jobs:1 tasks in
  let par = Engine.Pool.run_all ~jobs:4 tasks in
  Array.iteri
    (fun i plan ->
      Alcotest.(check bool) (plan ^ " identical across job counts") true (seq.(i) = par.(i)))
    plans

let test_engine_ras_evacuates () =
  (* A node_fail + ECC plan on an 8-vCPU Carrefour VM: the failed
     node's frames must really be moved off it. *)
  let vm =
    Engine.Config.vm ~threads:8 ~policy:Policies.Spec.first_touch_carrefour (tiny_app ())
  in
  let r =
    Engine.Runner.run
      (Engine.Config.make ~seed:11 ~max_epochs:400 ~carrefour_config:eager_carrefour
         ~faults:(Faults.Plan.of_string_exn "ecc-ce=0.2,node_fail=1.0@50")
         ~mode:Engine.Config.Xen_plus [ vm ])
  in
  let d = (Engine.Result.single r).Engine.Result.degradation in
  Alcotest.(check bool) "the node failure actually evacuated frames" true
    (d.Engine.Result.evacuated > 0)

(* The sweep and the promotion scan each have their own profiler
   phase, nested in the manager tick's: one reconcile span per sweep.
   So do the runner's churn (holding the queue's flushes), guest-model
   refresh and outcome stages: one outcome span per run. *)
let test_tick_phases_profiled () =
  let finish () =
    Obs.Profile.set_enabled false;
    Obs.Profile.reset ();
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ()
  in
  finish ();
  Fun.protect ~finally:finish (fun () ->
      Obs.Profile.set_enabled true;
      Obs.Metrics.set_enabled true;
      let vm =
        Engine.Config.vm ~threads:8 ~superpages:true ~policy:Policies.Spec.first_touch_carrefour
          (tiny_app ())
      in
      ignore
        (Engine.Runner.run
           (Engine.Config.make ~seed:11 ~max_epochs:2_000 ~carrefour_config:eager_carrefour
              ~faults:(Faults.Plan.of_string_exn "batch-loss=0.5")
              ~mode:Engine.Config.Xen_plus [ vm ]));
      let phase name =
        match List.find_opt (fun (n, _, _) -> n = name) (Obs.Profile.totals ()) with
        | Some (_, calls, ns) -> (calls, ns)
        | None -> Alcotest.failf "phase %s missing from totals" name
      in
      let sweeps, sweep_ns = phase "manager.reconcile" in
      let scans, scan_ns = phase "manager.promote_scan" in
      let _, tick_ns = phase "manager.epoch_tick" in
      Alcotest.(check bool) "sweeps ran" true (sweeps > 0);
      Alcotest.(check (option int)) "one span per sweep" (Some sweeps)
        (Obs.Metrics.counter_value "policies.reconcile.sweeps");
      Alcotest.(check bool) "scans ran" true (scans > 0);
      Alcotest.(check bool) "sweep time inside the tick's" true (sweep_ns <= tick_ns);
      Alcotest.(check bool) "scan time inside the tick's" true (scan_ns <= tick_ns);
      let churns, churn_ns = phase "churn" in
      let _, flush_ns = phase "pv.flush" in
      Alcotest.(check bool) "churn ran" true (churns > 0);
      Alcotest.(check bool) "flush time inside the churn's" true (flush_ns <= churn_ns);
      Alcotest.(check bool) "placement refreshed" true (fst (phase "guest.refresh") > 0);
      Alcotest.(check int) "one outcome span" 1 (fst (phase "outcome")))

(* ------------------------------- suite ----------------------------- *)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "plan round-trip" `Quick test_plan_parse_roundtrip;
        Alcotest.test_case "plan empty forms" `Quick test_plan_parse_empty;
        Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
        Alcotest.test_case "plan unknown site lists valid" `Quick
          test_plan_unknown_site_lists_valid;
        Alcotest.test_case "plan ras rate range" `Quick test_plan_ras_rate_range;
        Alcotest.test_case "plan window validation" `Quick test_plan_validate_window;
        Alcotest.test_case "injector deterministic" `Quick test_injector_deterministic;
        Alcotest.test_case "injector quiet at boot" `Quick test_injector_boot_quiet;
        Alcotest.test_case "injector window" `Quick test_injector_window;
        Alcotest.test_case "injector node offline" `Quick test_injector_node_offline;
        Alcotest.test_case "injector empty plan" `Quick test_injector_empty_disabled;
        Alcotest.test_case "injector ecc deterministic" `Quick test_injector_ecc_deterministic;
        Alcotest.test_case "injector node-fail lifecycle" `Quick
          test_injector_node_fail_lifecycle;
        Alcotest.test_case "injector node-fail recovers" `Quick
          test_injector_node_fail_transient_recovers;
        QCheck_alcotest.to_alcotest prop_unarmed_queries_inert;
        Alcotest.test_case "p2m rejects negative mfn" `Quick test_p2m_rejects_negative_mfn;
        Alcotest.test_case "p2m check_consistent" `Quick test_p2m_check_consistent;
        Alcotest.test_case "queue re-entrant flush" `Quick test_queue_reentrant_flush;
        Alcotest.test_case "queue fault hooks" `Quick test_queue_drop_hook;
        QCheck_alcotest.to_alcotest prop_replay_most_recent_wins;
        Alcotest.test_case "breaker escalates to static" `Quick test_breaker_escalates_to_static;
        Alcotest.test_case "deferred migrations drain" `Quick
          test_deferred_drains_when_pressure_lifts;
        Alcotest.test_case "drain enomem requeues" `Quick test_drain_enomem_requeues;
        Alcotest.test_case "reconcile heals lost batch" `Quick test_reconcile_heals_lost_batch;
        Alcotest.test_case "audit rejects offlined mapping" `Quick
          test_audit_rejects_offlined_mapping;
        QCheck_alcotest.to_alcotest prop_free_pfns_is_free_set;
        QCheck_alcotest.to_alcotest prop_chaos_frame_accounting;
        Alcotest.test_case "engine survives migrate=1.0" `Quick
          test_engine_completes_under_full_migration_failure;
        Alcotest.test_case "engine clean run" `Quick test_engine_clean_run_reports_no_degradation;
        Alcotest.test_case "engine jobs bit-identical" `Quick test_engine_jobs_bit_identical;
        Alcotest.test_case "engine ras evacuates" `Quick test_engine_ras_evacuates;
        Alcotest.test_case "capped run is reported" `Quick test_capped_run_is_reported;
        Alcotest.test_case "tick phases profiled" `Quick test_tick_phases_profiled;
      ] );
  ]
