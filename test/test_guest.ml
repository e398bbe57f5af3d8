(* Tests for the guest library: gpt, pfn_pool, pv_queue, and a process
   built from a gpt and the pool. *)

(* -------------------------------- gpt ----------------------------- *)

let test_gpt_lazy () =
  let g = Guest.Gpt.create ~frames:8 in
  let faults = ref 0 in
  let alloc () = incr faults; Some (100 + !faults) in
  Alcotest.(check (option int)) "first touch allocates" (Some 101) (Guest.Gpt.touch g 3 ~alloc);
  Alcotest.(check int) "one fault" 1 !faults;
  Alcotest.(check (option int)) "second touch reuses" (Some 101) (Guest.Gpt.touch g 3 ~alloc);
  Alcotest.(check int) "still one fault" 1 !faults

let test_gpt_alloc_failure () =
  let g = Guest.Gpt.create ~frames:2 in
  Alcotest.(check (option int)) "oom" None (Guest.Gpt.touch g 0 ~alloc:(fun () -> None))

let test_process_reuse_after_free () =
  (* The Figure-4 pattern: a page moves from one virtual address to
     another through the free list, invisibly to any hypervisor. *)
  let pool = Guest.Pfn_pool.create ~frames:4 () in
  let g = Guest.Gpt.create ~frames:8 in
  let alloc () = Guest.Pfn_pool.alloc pool in
  let pfn0 = match Guest.Gpt.touch g 0 ~alloc with Some x -> x | None -> -1 in
  Guest.Pfn_pool.release pool pfn0;
  let pfn1 = match Guest.Gpt.touch g 5 ~alloc with Some x -> x | None -> -1 in
  Alcotest.(check int) "same physical frame recycled" pfn0 pfn1

(* ------------------------------ pfn_pool --------------------------- *)

let test_pool_lifo_recycling () =
  let pool = Guest.Pfn_pool.create ~frames:8 () in
  let a = match Guest.Pfn_pool.alloc pool with Some p -> p | None -> -1 in
  let b = match Guest.Pfn_pool.alloc pool with Some p -> p | None -> -1 in
  Alcotest.(check int) "fresh 0" 0 a;
  Alcotest.(check int) "fresh 1" 1 b;
  Guest.Pfn_pool.release pool a;
  Alcotest.(check (option int)) "recycles most recent" (Some a) (Guest.Pfn_pool.alloc pool)

let test_pool_exhaustion () =
  let pool = Guest.Pfn_pool.create ~frames:2 () in
  ignore (Guest.Pfn_pool.alloc pool);
  ignore (Guest.Pfn_pool.alloc pool);
  Alcotest.(check (option int)) "exhausted" None (Guest.Pfn_pool.alloc pool)

let test_pool_double_release () =
  let pool = Guest.Pfn_pool.create ~frames:4 () in
  (match Guest.Pfn_pool.alloc pool with
  | Some p ->
      Guest.Pfn_pool.release pool p;
      Alcotest.check_raises "double release" (Invalid_argument "Pfn_pool.release: double release")
        (fun () -> Guest.Pfn_pool.release pool p)
  | None -> Alcotest.fail "alloc failed")

let test_pool_release_fresh_rejected () =
  let pool = Guest.Pfn_pool.create ~frames:4 () in
  Alcotest.check_raises "never allocated"
    (Invalid_argument "Pfn_pool.release: frame was never allocated") (fun () ->
      Guest.Pfn_pool.release pool 3)

let test_pool_first_fresh () =
  let pool = Guest.Pfn_pool.create ~frames:16 ~first_fresh:8 () in
  Alcotest.(check (option int)) "starts above the kernel zone" (Some 8)
    (Guest.Pfn_pool.alloc pool)

(* ------------------------------ pv_queue --------------------------- *)

let test_queue_partition_of () =
  let q = Guest.Pv_queue.create ~partitions:4 ~frames:16 ~flush:(fun _ -> 0.0) () in
  Alcotest.(check int) "4 partitions" 4 (Guest.Pv_queue.partitions q);
  Alcotest.(check int) "pfn 5 -> 1" 1 (Guest.Pv_queue.partition_of q 5);
  Alcotest.(check int) "pfn 7 -> 3" 3 (Guest.Pv_queue.partition_of q 7)

let test_queue_flush_on_capacity () =
  let flushed = ref [] in
  let q =
    Guest.Pv_queue.create ~partitions:1 ~capacity:4 ~frames:16
      ~flush:(fun ops -> flushed := Array.to_list ops :: !flushed; 1e-6)
      ()
  in
  for i = 1 to 3 do
    Guest.Pv_queue.record q (Guest.Pv_queue.Release i)
  done;
  Alcotest.(check int) "not yet flushed" 0 (List.length !flushed);
  Alcotest.(check int) "3 pending" 3 (Guest.Pv_queue.pending q);
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 4);
  Alcotest.(check int) "flushed once" 1 (List.length !flushed);
  Alcotest.(check int) "nothing pending" 0 (Guest.Pv_queue.pending q);
  let stats = Guest.Pv_queue.stats q in
  Alcotest.(check int) "4 ops sent" 4 stats.Guest.Pv_queue.ops_sent;
  Alcotest.(check (float 1e-12)) "time charged" 1e-6 stats.Guest.Pv_queue.guest_time

let test_queue_partition_isolation () =
  let flushes = ref 0 in
  let q =
    Guest.Pv_queue.create ~partitions:4 ~capacity:2 ~frames:16
      ~flush:(fun _ -> incr flushes; 0.0)
      ()
  in
  (* pfns 0,4,8,... all land in partition 0; others untouched. *)
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 0);
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 4);
  Alcotest.(check int) "partition 0 flushed" 1 !flushes;
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 1);
  Alcotest.(check int) "partition 1 untouched" 1 !flushes

let test_queue_flush_all () =
  let total = ref 0 in
  let q =
    Guest.Pv_queue.create ~partitions:4 ~capacity:100 ~frames:16
      ~flush:(fun ops -> total := !total + Array.length ops; 0.0)
      ()
  in
  for i = 0 to 9 do
    Guest.Pv_queue.record q (Guest.Pv_queue.Alloc i)
  done;
  Guest.Pv_queue.flush_all q;
  Alcotest.(check int) "all delivered" 10 !total;
  Alcotest.(check int) "empty" 0 (Guest.Pv_queue.pending q)

let test_queue_flush_time_dedup () =
  (* The queue dedups at flush time: the hypervisor sees at most one
     op per page, survivors in arrival order, and the superseded count
     lands in dedup_hits. *)
  let flushed = ref [] in
  let q =
    Guest.Pv_queue.create ~partitions:1 ~capacity:4 ~frames:16
      ~flush:(fun ops -> flushed := Array.to_list ops :: !flushed; 0.0)
      ()
  in
  Guest.Pv_queue.record q (Guest.Pv_queue.Alloc 0);
  Guest.Pv_queue.record q (Guest.Pv_queue.Alloc 4);
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 0);
  Guest.Pv_queue.record q (Guest.Pv_queue.Release 8);
  (match !flushed with
  | [ batch ] ->
      Alcotest.(check bool) "winners only, oldest first" true
        (batch
        = [ Guest.Pv_queue.Alloc 4; Guest.Pv_queue.Release 0; Guest.Pv_queue.Release 8 ])
  | batches -> Alcotest.failf "expected one flush, got %d" (List.length batches));
  let stats = Guest.Pv_queue.stats q in
  Alcotest.(check int) "one superseded op" 1 stats.Guest.Pv_queue.dedup_hits;
  Alcotest.(check int) "all four recorded" 4 stats.Guest.Pv_queue.enqueued;
  Alcotest.(check int) "three sent" 3 stats.Guest.Pv_queue.ops_sent

(* What the hypervisor replays: the ops of [spec] pushed through a
   queue whose capacity never fills, so each partition flushes once,
   at [flush_all]. *)
let replayed_ops ?partitions ~frames spec =
  let delivered = ref [] in
  let q =
    Guest.Pv_queue.create ?partitions ~capacity:(List.length spec + 1) ~frames
      ~flush:(fun ops -> delivered := Array.to_list ops :: !delivered; 0.0)
      ()
  in
  List.iter
    (fun (alloc, pfn) ->
      Guest.Pv_queue.record q
        (if alloc then Guest.Pv_queue.Alloc pfn else Guest.Pv_queue.Release pfn))
    spec;
  Guest.Pv_queue.flush_all q;
  List.concat (List.rev !delivered)

let test_queue_replay_most_recent_wins () =
  (* Release 7 then Alloc 7: the page was reallocated while queued,
     so the hypervisor gets only the Alloc and leaves the page in
     place (Section 4.2.4). *)
  Alcotest.(check bool) "reallocated page: Alloc only" true
    (replayed_ops ~frames:16 [ (false, 7); (true, 7) ] = [ Guest.Pv_queue.Alloc 7 ]);
  (* Alloc then Release: final state free -> invalidate. *)
  Alcotest.(check bool) "released page: Release only" true
    (replayed_ops ~frames:16 [ (true, 3); (false, 3) ] = [ Guest.Pv_queue.Release 3 ])

let prop_queue_replay_visits_each_page_once =
  QCheck.Test.make ~name:"replay visits each page exactly once" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (pair bool (int_range 0 20)))
    (fun spec ->
      let pfns = List.map Guest.Pv_queue.op_pfn (replayed_ops ~frames:21 spec) in
      let distinct = List.sort_uniq compare (List.map snd spec) in
      List.sort compare pfns = distinct)

let prop_queue_replay_matches_final_state =
  QCheck.Test.make ~name:"replay action = final op per page" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (pair bool (int_range 0 20)))
    (fun spec ->
      List.for_all
        (fun op ->
          let pfn = Guest.Pv_queue.op_pfn op in
          let last =
            List.fold_left (fun acc (alloc, p) -> if p = pfn then Some alloc else acc) None spec
          in
          match (last, op) with
          | Some false, Guest.Pv_queue.Release _ | Some true, Guest.Pv_queue.Alloc _ -> true
          | _ -> false)
        (replayed_ops ~frames:21 spec))

let test_queue_rejects_out_of_range () =
  let q = Guest.Pv_queue.create ~frames:16 ~flush:(fun _ -> 0.0) () in
  List.iter
    (fun pfn ->
      Alcotest.check_raises (Printf.sprintf "pfn %d" pfn)
        (Invalid_argument (Printf.sprintf "Pv_queue.record: pfn %d outside [0, 16)" pfn))
        (fun () -> Guest.Pv_queue.record q (Guest.Pv_queue.Release pfn)))
    [ 16; 17; -1 ];
  Alcotest.(check int) "nothing recorded" 0 (Guest.Pv_queue.stats q).Guest.Pv_queue.enqueued

(* Differential for the one most-recent-op-wins pass: a queue feeding
   [Manager.page_ops_hypercall] against a test-local reference that
   buffers the same partitions, dedups each flush newest-first through
   a Hashtbl, draws the drops once per survivor oldest-first, and
   clears each final Release with a per-page [P2m.invalidate].  The
   streams reallocate pages while they are queued, the capacities are
   small so flushes fall mid-stream, and the worlds run with and
   without superpages, a drop hook and a page-invalidating policy. *)
let prop_queue_page_ops_equals_reference =
  let world ~superpages ~invalidates =
    let s =
      Xen.System.create ~page_scale:(if superpages then 128 else 16384) (Numa.Amd48.topology ())
    in
    let d =
      Xen.System.create_domain s ~name:"pv" ~kind:Xen.Domain.DomU ~vcpus:6
        ~mem_bytes:(4 * 1024 * 1024 * 1024) ()
    in
    let boot = if superpages then Policies.Spec.round_1g else Policies.Spec.round_4k in
    let m = Policies.Manager.attach ~superpages s d ~boot ~rng:(Sim.Rng.create ~seed:1) in
    (if invalidates then
       match Policies.Manager.set_policy m Policies.Spec.first_touch with
       | Ok () -> ()
       | Error e -> failwith e);
    (s, d, m)
  in
  let dump d =
    let p2m = d.Xen.Domain.p2m in
    Array.init (Xen.P2m.frames p2m) (fun pfn -> (Xen.P2m.get p2m pfn, Xen.P2m.is_superpage p2m pfn))
  in
  let free_per_node s =
    List.init (Numa.Topology.node_count s.Xen.System.topo) (fun node ->
        Memory.Machine.free_frames_on s.Xen.System.machine node)
  in
  QCheck.Test.make ~name:"queue + page_ops_hypercall = newest-first reference" ~count:150
    QCheck.(
      pair
        (quad int (int_range 1 8) (int_range 0 2) (triple bool bool bool))
        (list_of_size Gen.(0 -- 200) (pair bool (int_range 0 63))))
    (fun ((seed, capacity, log_parts, (superpages, invalidates, drops)), spec) ->
      let partitions = 1 lsl log_parts in
      let ops =
        List.map
          (fun (alloc, pfn) -> if alloc then Guest.Pv_queue.Alloc pfn else Guest.Pv_queue.Release pfn)
          spec
      in
      let drop_op () =
        if drops then
          let rng = Sim.Rng.create ~seed in
          fun _ -> Sim.Rng.bernoulli rng 0.2
        else fun _ -> false
      in
      (* The system under test. *)
      let s, d, m = world ~superpages ~invalidates in
      let q =
        Guest.Pv_queue.create ~partitions ~capacity ~frames:d.Xen.Domain.mem_frames
          ~flush:(Policies.Manager.page_ops_hypercall m)
          ()
      in
      if drops then Guest.Pv_queue.set_fault_hooks q ~drop_op:(drop_op ());
      List.iter (Guest.Pv_queue.record q) ops;
      Guest.Pv_queue.flush_all q;
      (* The reference. *)
      let s', d', _ = world ~superpages ~invalidates in
      let drop = drop_op () in
      let parts = Array.make partitions [] in
      let hits = ref 0 and invalidated = ref 0 and left = ref 0 in
      let flush part =
        let seen = Hashtbl.create 16 in
        (* [parts.(part)] is newest-first; prepending keeps the winners
           oldest-first. *)
        let winners =
          List.fold_left
            (fun acc op ->
              let pfn = Guest.Pv_queue.op_pfn op in
              if Hashtbl.mem seen pfn then begin
                incr hits;
                acc
              end
              else begin
                Hashtbl.replace seen pfn ();
                op :: acc
              end)
            [] parts.(part)
        in
        parts.(part) <- [];
        List.iter
          (fun op ->
            if not (drop op) then
              match op with
              | Guest.Pv_queue.Alloc _ -> incr left
              | Guest.Pv_queue.Release pfn ->
                  if invalidates then
                    match Xen.P2m.invalidate d'.Xen.Domain.p2m pfn with
                    | Some mfn ->
                        Memory.Machine.free s'.Xen.System.machine ~mfn ~order:0;
                        incr invalidated
                    | None -> ())
          winners
      in
      List.iter
        (fun op ->
          let part = Guest.Pv_queue.op_pfn op land (partitions - 1) in
          parts.(part) <- op :: parts.(part);
          if List.length parts.(part) = capacity then flush part)
        ops;
      Array.iteri (fun part l -> if l <> [] then flush part) parts;
      let stats = Policies.Manager.stats m in
      if dump d <> dump d' then QCheck.Test.fail_report "P2M differs";
      if free_per_node s <> free_per_node s' then
        QCheck.Test.fail_report "free frames per node differ";
      stats.Policies.Manager.invalidated = !invalidated
      && stats.Policies.Manager.left_in_place = !left
      && (Guest.Pv_queue.stats q).Guest.Pv_queue.dedup_hits = !hits)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "guest.gpt",
      [
        Alcotest.test_case "lazy allocation" `Quick test_gpt_lazy;
        Alcotest.test_case "alloc failure" `Quick test_gpt_alloc_failure;
      ] );
    (* A guest process is a page table over the shared frame pool,
       wired as the runner wires it. *)
    ( "guest.process",
      [ Alcotest.test_case "figure-4 reuse" `Quick test_process_reuse_after_free ] );
    ( "guest.pfn_pool",
      [
        Alcotest.test_case "lifo recycling" `Quick test_pool_lifo_recycling;
        Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
        Alcotest.test_case "double release" `Quick test_pool_double_release;
        Alcotest.test_case "release fresh rejected" `Quick test_pool_release_fresh_rejected;
        Alcotest.test_case "first_fresh offset" `Quick test_pool_first_fresh;
      ] );
    ( "guest.pv_queue",
      [
        Alcotest.test_case "partition_of" `Quick test_queue_partition_of;
        Alcotest.test_case "flush on capacity" `Quick test_queue_flush_on_capacity;
        Alcotest.test_case "partition isolation" `Quick test_queue_partition_isolation;
        Alcotest.test_case "flush_all" `Quick test_queue_flush_all;
        Alcotest.test_case "flush-time dedup" `Quick test_queue_flush_time_dedup;
        Alcotest.test_case "most recent op wins" `Quick test_queue_replay_most_recent_wins;
        qcheck prop_queue_replay_visits_each_page_once;
        qcheck prop_queue_replay_matches_final_state;
        Alcotest.test_case "rejects out-of-range pfn" `Quick test_queue_rejects_out_of_range;
        qcheck prop_queue_page_ops_equals_reference;
      ] );
  ]
