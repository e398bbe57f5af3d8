(* Tests for the memory library: page constants, buddy allocator,
   machine memory. *)

(* ------------------------------- page ----------------------------- *)

let test_page_constants () =
  Alcotest.(check int) "4k" 4096 Memory.Page.size_4k;
  Alcotest.(check int) "2m frames" 512 Memory.Page.frames_per_2m;
  Alcotest.(check int) "1g frames" 262144 Memory.Page.frames_per_1g;
  Alcotest.(check int) "2m order" 9 Memory.Page.order_2m;
  Alcotest.(check int) "1g order" 18 Memory.Page.order_1g

(* Satellite of the buddy.mli doc fix: the order constants are derived
   from the Units sizes in one place, so the byte math can never drift
   from the frame math. *)
let test_page_orders_from_units () =
  Alcotest.(check int) "order_2m from 2 MiB"
    (Memory.Page.order_of_size (Sim.Units.mib 2))
    Memory.Page.order_2m;
  Alcotest.(check int) "order_1g from 1 GiB"
    (Memory.Page.order_of_size (Sim.Units.gib 1))
    Memory.Page.order_1g;
  Alcotest.(check int) "2m bytes round-trip" (Sim.Units.mib 2)
    ((1 lsl Memory.Page.order_2m) * Memory.Page.size_4k);
  Alcotest.(check int) "1g bytes round-trip" (Sim.Units.gib 1)
    ((1 lsl Memory.Page.order_1g) * Memory.Page.size_4k);
  Alcotest.(check int) "frames_per_2m" (1 lsl Memory.Page.order_2m) Memory.Page.frames_per_2m;
  Alcotest.(check int) "frames_per_1g" (1 lsl Memory.Page.order_1g) Memory.Page.frames_per_1g;
  Alcotest.(check bool) "buddy can serve order_1g" true
    (Memory.Buddy.max_order >= Memory.Page.order_1g);
  Alcotest.check_raises "sub-frame size"
    (Invalid_argument "Page.order_of_size: not a whole number of 4 KiB frames") (fun () ->
      ignore (Memory.Page.order_of_size 4095));
  Alcotest.check_raises "non-power-of-two frames"
    (Invalid_argument "Page.order_of_size: not a power-of-two frame count") (fun () ->
      ignore (Memory.Page.order_of_size (3 * 4096)))

(* ------------------------------- buddy ---------------------------- *)

let consistent b =
  Alcotest.(check bool) "buddy consistent" true (Memory.Buddy.check_consistent b)

let test_buddy_exhausts_exactly () =
  let b = Memory.Buddy.create ~base:0 ~frames:16 in
  Alcotest.(check int) "16 free" 16 (Memory.Buddy.free_frames b);
  let blocks = ref [] in
  let rec drain () =
    match Memory.Buddy.alloc b ~order:0 with
    | Some f ->
        blocks := f :: !blocks;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "16 allocated" 16 (List.length !blocks);
  Alcotest.(check int) "none free" 0 (Memory.Buddy.free_frames b);
  (* All distinct and in range. *)
  let sorted = List.sort_uniq compare !blocks in
  Alcotest.(check int) "distinct" 16 (List.length sorted);
  List.iter (fun f -> Alcotest.(check bool) "in range" true (f >= 0 && f < 16)) sorted;
  consistent b

let test_buddy_split_and_coalesce () =
  let b = Memory.Buddy.create ~base:0 ~frames:16 in
  let f0 = match Memory.Buddy.alloc b ~order:0 with Some f -> f | None -> -1 in
  Alcotest.(check (option int)) "largest after split" (Some 3) (Memory.Buddy.largest_free_order b);
  Memory.Buddy.free b ~base:f0 ~order:0;
  Alcotest.(check (option int)) "coalesced back" (Some 4) (Memory.Buddy.largest_free_order b);
  Alcotest.(check int) "all free" 16 (Memory.Buddy.free_frames b);
  consistent b

let test_buddy_alloc_alignment () =
  let b = Memory.Buddy.create ~base:0 ~frames:1024 in
  for order = 0 to 6 do
    match Memory.Buddy.alloc b ~order with
    | Some f ->
        Alcotest.(check int) (Printf.sprintf "order %d aligned" order) 0 (f mod (1 lsl order))
    | None -> Alcotest.fail "allocation failed"
  done;
  consistent b

let test_buddy_double_free_detected () =
  let b = Memory.Buddy.create ~base:0 ~frames:16 in
  (match Memory.Buddy.alloc b ~order:2 with
  | Some f ->
      Memory.Buddy.free b ~base:f ~order:2;
      Alcotest.check_raises "double free" (Invalid_argument "Buddy.free: double free")
        (fun () -> Memory.Buddy.free b ~base:f ~order:2);
      consistent b
  | None -> Alcotest.fail "alloc failed")

let test_buddy_out_of_range_free () =
  let b = Memory.Buddy.create ~base:0 ~frames:16 in
  Alcotest.check_raises "out of range" (Invalid_argument "Buddy.free: block out of range")
    (fun () -> Memory.Buddy.free b ~base:100 ~order:0)

let test_buddy_non_power_of_two () =
  let b = Memory.Buddy.create ~base:0 ~frames:100 in
  Alcotest.(check int) "100 free" 100 (Memory.Buddy.free_frames b);
  (* Largest aligned block inside 100 frames is 64. *)
  Alcotest.(check (option int)) "largest order 6" (Some 6) (Memory.Buddy.largest_free_order b);
  consistent b

let test_buddy_nonzero_base () =
  let b = Memory.Buddy.create ~base:4096 ~frames:256 in
  (match Memory.Buddy.alloc b ~order:8 with
  | Some f -> Alcotest.(check int) "whole range" 4096 f
  | None -> Alcotest.fail "alloc failed");
  Alcotest.(check (option int)) "empty" None (Memory.Buddy.alloc b ~order:0);
  consistent b

let test_buddy_reserve () =
  let b = Memory.Buddy.create ~base:0 ~frames:64 in
  let reserved = Memory.Buddy.reserve b ~base:10 ~frames:10 in
  Alcotest.(check int) "10 reserved" 10 reserved;
  Alcotest.(check int) "54 free" 54 (Memory.Buddy.free_frames b);
  consistent b;
  (* The hole is never handed out. *)
  let rec drain acc =
    match Memory.Buddy.alloc b ~order:0 with Some f -> drain (f :: acc) | None -> acc
  in
  let all = drain [] in
  Alcotest.(check int) "54 allocatable" 54 (List.length all);
  List.iter
    (fun f -> if f >= 10 && f < 20 then Alcotest.failf "hole frame %d handed out" f)
    all

let test_buddy_fragmentation_fallback () =
  let b = Memory.Buddy.create ~base:0 ~frames:256 in
  (* Fragment: allocate every other order-0 block of the first 128. *)
  let held = ref [] in
  for _ = 1 to 64 do
    match Memory.Buddy.alloc b ~order:1 with
    | Some f ->
        (* keep the low half, free the high half: fragments order-1 space *)
        Memory.Buddy.split_allocation b ~base:f ~order:1;
        Memory.Buddy.free b ~base:(f + 1) ~order:0;
        held := f :: !held
    | None -> Alcotest.fail "alloc failed"
  done;
  Alcotest.(check (option int)) "big blocks left" (Some 7) (Memory.Buddy.largest_free_order b);
  consistent b;
  Alcotest.(check bool) "order 7 alloc still works" true
    (Memory.Buddy.alloc b ~order:7 <> None);
  Alcotest.(check (option int)) "no more big blocks" None (Memory.Buddy.alloc b ~order:7)

(* qcheck: random alloc/free traces conserve frames and never overlap *)
let prop_buddy_trace =
  QCheck.Test.make ~name:"buddy conserves frames under random traces" ~count:100
    QCheck.(pair int (list_of_size (Gen.int_range 1 200) (int_range 0 4)))
    (fun (seed, orders) ->
      let b = Memory.Buddy.create ~base:0 ~frames:1024 in
      let rng = Sim.Rng.create ~seed in
      let held = ref [] in
      List.iter
        (fun order ->
          if Sim.Rng.int rng 2 = 1 || !held = [] then begin
            match Memory.Buddy.alloc b ~order with
            | Some f -> held := (f, order) :: !held
            | None -> ()
          end
          else begin
            match !held with
            | (f, o) :: rest ->
                Memory.Buddy.free b ~base:f ~order:o;
                held := rest
            | [] -> ()
          end)
        orders;
      let held_frames = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !held in
      Memory.Buddy.free_frames b + held_frames = 1024 && Memory.Buddy.check_consistent b)

(* Satellite property: under random split/alloc/free sequences the
   allocator's view of the arena stays a partition — held blocks never
   overlap, free + held frame counts conserve the arena, and the free
   side really is the complement (draining it as order-0 allocations
   covers exactly the frames no held block owns). *)
let prop_buddy_partition =
  let arena = 1024 in
  QCheck.Test.make ~name:"buddy free+allocated partitions the arena" ~count:100
    QCheck.(pair int (list_of_size (Gen.int_range 1 300) (int_range 0 5)))
    (fun (seed, orders) ->
      let b = Memory.Buddy.create ~base:0 ~frames:arena in
      let rng = Sim.Rng.create ~seed in
      let held = ref [] in
      List.iter
        (fun order ->
          match Sim.Rng.int rng 4 with
          | 0 | 1 -> (
              (* alloc *)
              match Memory.Buddy.alloc b ~order with
              | Some f -> held := (f, order) :: !held
              | None -> ())
          | 2 -> (
              (* free a random held block *)
              match !held with
              | [] -> ()
              | l ->
                  let i = Sim.Rng.int rng (List.length l) in
                  let f, o = List.nth l i in
                  Memory.Buddy.free b ~base:f ~order:o;
                  held := List.filteri (fun j _ -> j <> i) l)
          | _ -> (
              (* split a random held block into order-0 allocations *)
              match List.filter (fun (_, o) -> o > 0) !held with
              | [] -> ()
              | splittable ->
                  let i = Sim.Rng.int rng (List.length splittable) in
                  let f, o = List.nth splittable i in
                  Memory.Buddy.split_allocation b ~base:f ~order:o;
                  held :=
                    List.init (1 lsl o) (fun k -> (f + k, 0))
                    @ List.filter (fun blk -> blk <> (f, o)) !held))
        orders;
      if not (Memory.Buddy.check_consistent b) then QCheck.Test.fail_report "inconsistent";
      (* No two held blocks overlap. *)
      let sorted =
        List.sort compare (List.map (fun (f, o) -> (f, f + (1 lsl o))) !held)
      in
      let rec disjoint = function
        | (_, hi) :: ((lo, _) :: _ as rest) ->
            if hi > lo then QCheck.Test.fail_reportf "held blocks overlap at frame %d" lo;
            disjoint rest
        | _ -> ()
      in
      disjoint sorted;
      (* Conservation. *)
      let held_frames = List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 sorted in
      if Memory.Buddy.free_frames b + held_frames <> arena then
        QCheck.Test.fail_reportf "%d free + %d held <> %d"
          (Memory.Buddy.free_frames b) held_frames arena;
      (* The free side is exactly the complement: drain it as order-0
         allocations and check every arena frame is owned once. *)
      let owned = Array.make arena false in
      List.iter
        (fun (lo, hi) ->
          for f = lo to hi - 1 do
            if owned.(f) then QCheck.Test.fail_reportf "frame %d held twice" f;
            owned.(f) <- true
          done)
        sorted;
      let rec drain () =
        match Memory.Buddy.alloc b ~order:0 with
        | Some f ->
            if owned.(f) then QCheck.Test.fail_reportf "free frame %d already held" f;
            owned.(f) <- true;
            drain ()
        | None -> ()
      in
      drain ();
      Array.iteri
        (fun f o -> if not o then QCheck.Test.fail_reportf "frame %d leaked" f)
        owned;
      true)

let prop_buddy_full_free_coalesces =
  QCheck.Test.make ~name:"freeing everything restores one max block" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 3))
    (fun orders ->
      let b = Memory.Buddy.create ~base:0 ~frames:256 in
      let held =
        List.filter_map
          (fun order ->
            match Memory.Buddy.alloc b ~order with Some f -> Some (f, order) | None -> None)
          orders
      in
      List.iter (fun (f, o) -> Memory.Buddy.free b ~base:f ~order:o) held;
      Memory.Buddy.free_frames b = 256
      && Memory.Buddy.largest_free_order b = Some 8
      && Memory.Buddy.check_consistent b)

(* --------------------------- buddy offline ------------------------ *)

let test_offline_free_range () =
  let b = Memory.Buddy.create ~base:0 ~frames:64 in
  let offlined, pending = Memory.Buddy.offline_range b ~base:16 ~frames:16 in
  Alcotest.(check int) "16 offlined now" 16 offlined;
  Alcotest.(check int) "none pending" 0 pending;
  Alcotest.(check int) "free shrank" 48 (Memory.Buddy.free_frames b);
  Alcotest.(check int) "offlined counted" 16 (Memory.Buddy.offlined_frames b);
  Alcotest.(check bool) "frame retired" true (Memory.Buddy.is_offlined b ~frame:20);
  Alcotest.(check bool) "outside untouched" false (Memory.Buddy.is_offlined b ~frame:40);
  consistent b;
  (* The hole is never handed out. *)
  let rec drain acc =
    match Memory.Buddy.alloc b ~order:0 with Some f -> drain (f :: acc) | None -> acc
  in
  let all = drain [] in
  Alcotest.(check int) "48 allocatable" 48 (List.length all);
  List.iter
    (fun f -> if f >= 16 && f < 32 then Alcotest.failf "offlined frame %d handed out" f)
    all

let test_offline_allocated_pends () =
  let b = Memory.Buddy.create ~base:0 ~frames:32 in
  let f = match Memory.Buddy.alloc b ~order:2 with Some f -> f | None -> -1 in
  let offlined, pending = Memory.Buddy.offline_range b ~base:f ~frames:4 in
  Alcotest.(check int) "none offlined yet" 0 offlined;
  Alcotest.(check int) "4 pending" 4 pending;
  Alcotest.(check int) "pending counted" 4 (Memory.Buddy.offline_pending_frames b);
  Alcotest.(check bool) "not yet retired" false (Memory.Buddy.is_offlined b ~frame:f);
  consistent b;
  (* The free retires the pending frames instead of recycling them. *)
  Memory.Buddy.free b ~base:f ~order:2;
  Alcotest.(check int) "retired on free" 4 (Memory.Buddy.offlined_frames b);
  Alcotest.(check int) "no pending left" 0 (Memory.Buddy.offline_pending_frames b);
  Alcotest.(check bool) "now retired" true (Memory.Buddy.is_offlined b ~frame:f);
  Alcotest.(check int) "free excludes them" 28 (Memory.Buddy.free_frames b);
  consistent b

let test_online_range_restores () =
  let b = Memory.Buddy.create ~base:0 ~frames:64 in
  ignore (Memory.Buddy.offline_range b ~base:0 ~frames:32);
  Alcotest.(check int) "half gone" 32 (Memory.Buddy.free_frames b);
  let restored = Memory.Buddy.online_range b ~base:0 ~frames:32 in
  Alcotest.(check int) "all restored" 32 restored;
  Alcotest.(check int) "free whole again" 64 (Memory.Buddy.free_frames b);
  Alcotest.(check int) "no offlined left" 0 (Memory.Buddy.offlined_frames b);
  (* Restoration coalesces: the arena is one max-order block again. *)
  Alcotest.(check (option int)) "coalesced" (Some 6) (Memory.Buddy.largest_free_order b);
  consistent b

let test_online_cancels_pending () =
  let b = Memory.Buddy.create ~base:0 ~frames:16 in
  let f = match Memory.Buddy.alloc b ~order:1 with Some f -> f | None -> -1 in
  ignore (Memory.Buddy.offline_range b ~base:f ~frames:2);
  let restored = Memory.Buddy.online_range b ~base:f ~frames:2 in
  Alcotest.(check int) "pending frames are not freed" 0 restored;
  Alcotest.(check int) "mark cancelled" 0 (Memory.Buddy.offline_pending_frames b);
  (* A later free recycles normally. *)
  Memory.Buddy.free b ~base:f ~order:1;
  Alcotest.(check int) "recycled" 16 (Memory.Buddy.free_frames b);
  Alcotest.(check int) "nothing retired" 0 (Memory.Buddy.offlined_frames b);
  consistent b

(* Satellite property: with offline/online operations mixed into random
   alloc/free traces the partition invariant extends to
   free + allocated + offlined = total (pending counts as allocated),
   the offlined counter equals the number of retired frames, and
   offlined frames are never handed out. *)
let prop_buddy_offline_partition =
  let arena = 512 in
  QCheck.Test.make ~name:"buddy offline keeps the partition invariant" ~count:100
    QCheck.(pair int (list_of_size (Gen.int_range 1 300) (int_range 0 4)))
    (fun (seed, orders) ->
      let b = Memory.Buddy.create ~base:0 ~frames:arena in
      let rng = Sim.Rng.create ~seed in
      let held = ref [] in
      List.iter
        (fun order ->
          match Sim.Rng.int rng 5 with
          | 0 | 1 -> (
              match Memory.Buddy.alloc b ~order with
              | Some f ->
                  if Memory.Buddy.is_offlined b ~frame:f then
                    QCheck.Test.fail_reportf "offlined frame %d handed out" f;
                  held := (f, order) :: !held
              | None -> ())
          | 2 -> (
              match !held with
              | [] -> ()
              | l ->
                  let i = Sim.Rng.int rng (List.length l) in
                  let f, o = List.nth l i in
                  Memory.Buddy.free b ~base:f ~order:o;
                  held := List.filteri (fun j _ -> j <> i) l)
          | 3 ->
              let base = Sim.Rng.int rng arena in
              let frames = 1 + Sim.Rng.int rng 32 in
              ignore (Memory.Buddy.offline_range b ~base ~frames)
          | _ ->
              let base = Sim.Rng.int rng arena in
              let frames = 1 + Sim.Rng.int rng 32 in
              ignore (Memory.Buddy.online_range b ~base ~frames))
        orders;
      let held_frames = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !held in
      let free = Memory.Buddy.free_frames b in
      let offlined = Memory.Buddy.offlined_frames b in
      let pending = Memory.Buddy.offline_pending_frames b in
      if pending > held_frames then
        QCheck.Test.fail_reportf "%d pending > %d held" pending held_frames;
      if free + held_frames + offlined <> arena then
        QCheck.Test.fail_reportf "%d free + %d held + %d offlined <> %d" free held_frames
          offlined arena;
      (* The counter is exact: the reconcile sweep skips its
         offlined-mfn walk whenever it reads zero. *)
      let retired = ref 0 in
      for f = 0 to arena - 1 do
        if Memory.Buddy.is_offlined b ~frame:f then incr retired
      done;
      if !retired <> offlined then
        QCheck.Test.fail_reportf "%d frames retired, counter says %d" !retired offlined;
      if not (Memory.Buddy.check_consistent b) then QCheck.Test.fail_report "inconsistent";
      (* Draining the free side never yields a retired frame. *)
      let rec drain () =
        match Memory.Buddy.alloc b ~order:0 with
        | Some f ->
            if Memory.Buddy.is_offlined b ~frame:f then
              QCheck.Test.fail_reportf "drained retired frame %d" f;
            drain ()
        | None -> ()
      in
      drain ();
      true)

(* Differential property: [free_run] over a run of frames ends in the
   per-frame [free] loop's state, or raises its first exception.  Twin
   arenas go through the same random history: split and unsplit
   allocations (split blocks make runs that cross coalescing
   boundaries), scattered single frees (free neighbours for the run to
   merge with), and offline requests (pending frames inside the run).
   A successful run must leave equal counters and hand out the same
   next 64 blocks. *)
let prop_buddy_free_run_equals_per_frame =
  QCheck.Test.make ~name:"free_run = per-frame free" ~count:300 QCheck.int (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let base = 64 * Sim.Rng.int rng 5 and frames = 512 + Sim.Rng.int rng 512 in
      let a = Memory.Buddy.create ~base ~frames and b = Memory.Buddy.create ~base ~frames in
      let both f = f a; f b in
      (* held.(i): order + 1 of a held block at base + i, and 1 for
         every frame of a split block. *)
      let held = Array.make frames 0 in
      for _ = 1 to 40 do
        let order = Sim.Rng.int rng 7 in
        match (Memory.Buddy.alloc a ~order, Memory.Buddy.alloc b ~order) with
        | Some f, Some f' when f = f' ->
            if Sim.Rng.int rng 4 > 0 then begin
              both (fun x -> Memory.Buddy.split_allocation x ~base:f ~order);
              Array.fill held (f - base) (1 lsl order) 1
            end
            else held.(f - base) <- order + 1
        | None, None -> ()
        | _ -> QCheck.Test.fail_report "twins diverged while allocating"
      done;
      for i = 0 to frames - 1 do
        if held.(i) = 1 && Sim.Rng.int rng 6 = 0 then begin
          both (fun x -> Memory.Buddy.free x ~base:(base + i) ~order:0);
          held.(i) <- 0
        end
      done;
      if Sim.Rng.int rng 2 = 1 then begin
        let lo = base + Sim.Rng.int rng frames and n = 1 + Sim.Rng.int rng 8 in
        both (fun x -> ignore (Memory.Buddy.offline_range x ~base:lo ~frames:n))
      end;
      (* Mostly a maximal stretch of order-0 tags from a random start;
         sometimes an arbitrary span, which may hit a free frame, a
         block base of the wrong order or the end of the arena. *)
      let start = Sim.Rng.int rng frames in
      let len =
        if Sim.Rng.int rng 4 = 0 then 1 + Sim.Rng.int rng 64
        else begin
          let n = ref 0 in
          while start + !n < frames && held.(start + !n) = 1 do
            incr n
          done;
          !n
        end
      in
      let outcome f = match f () with () -> Ok () | exception Invalid_argument m -> Error m in
      let ra = outcome (fun () -> Memory.Buddy.free_run a ~base:(base + start) ~frames:len) in
      let rb =
        outcome (fun () ->
            for f = base + start to base + start + len - 1 do
              Memory.Buddy.free b ~base:f ~order:0
            done)
      in
      match (ra, rb) with
      | Error m, Error m' -> m = m' || QCheck.Test.fail_reportf "raised %S, loop raised %S" m m'
      | Ok (), Error m | Error m, Ok () -> QCheck.Test.fail_reportf "only one side raised %S" m
      | Ok (), Ok () ->
          let counters x =
            Memory.Buddy.
              ( free_frames x,
                largest_free_order x,
                offlined_frames x,
                offline_pending_frames x,
                check_consistent x )
          in
          if counters a <> counters b then QCheck.Test.fail_report "counters diverged";
          if not (Memory.Buddy.check_consistent a) then QCheck.Test.fail_report "inconsistent";
          for _ = 1 to 64 do
            let order = Sim.Rng.int rng 5 in
            if Memory.Buddy.alloc a ~order <> Memory.Buddy.alloc b ~order then
              QCheck.Test.fail_reportf "next order-%d allocation diverged" order
          done;
          true)

(* ------------------------------ machine --------------------------- *)

let machine ?(page_scale = 1) () = Memory.Machine.create ~page_scale (Numa.Amd48.topology ())

let test_machine_layout () =
  let m = machine () in
  Alcotest.(check int) "frames/node" (16 * 1024 * 1024 * 1024 / 4096) (Memory.Machine.frames_per_node m);
  Alcotest.(check int) "frame bytes" 4096 (Memory.Machine.frame_bytes m);
  Alcotest.(check int) "node of frame 0" 0 (Memory.Machine.node_of_mfn m 0);
  let fpn = Memory.Machine.frames_per_node m in
  Alcotest.(check int) "node of frame fpn" 1 (Memory.Machine.node_of_mfn m fpn);
  Alcotest.(check int) "node of last" 7 (Memory.Machine.node_of_mfn m ((8 * fpn) - 1))

let test_machine_alloc_on_node () =
  let m = machine () in
  (match Memory.Machine.alloc_frame m ~node:3 with
  | Some mfn -> Alcotest.(check int) "frame from node 3" 3 (Memory.Machine.node_of_mfn m mfn)
  | None -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "one frame used"
    (Memory.Machine.frames_per_node m - 1)
    (Memory.Machine.free_frames_on m 3)

let test_machine_fallback () =
  let m = Memory.Machine.create ~page_scale:262144 (Numa.Amd48.topology ()) in
  (* 1 GiB scaled frames: 16 per node.  Exhaust node 0 and watch the
     fallback round-robin spill (Section 3.1). *)
  for _ = 1 to 16 do
    match Memory.Machine.alloc_frame m ~node:0 with
    | Some _ -> ()
    | None -> Alcotest.fail "node 0 should have frames"
  done;
  Alcotest.(check int) "node 0 empty" 0 (Memory.Machine.free_frames_on m 0);
  match Memory.Machine.alloc_frame_fallback m ~prefer:0 with
  | Some mfn ->
      Alcotest.(check bool) "spilled to another node" true (Memory.Machine.node_of_mfn m mfn <> 0)
  | None -> Alcotest.fail "fallback failed"

let test_machine_scaled_orders () =
  let m = machine ~page_scale:256 () in
  Alcotest.(check int) "frame bytes 1 MiB" (1024 * 1024) (Memory.Machine.frame_bytes m);
  Alcotest.(check int) "1g order scaled" 10 (Memory.Machine.order_1g m);
  Alcotest.(check int) "2m order scaled" 1 (Memory.Machine.order_2m m)

let test_machine_free_respects_node () =
  let m = machine () in
  match Memory.Machine.alloc_on m ~node:2 ~order:4 with
  | Some mfn ->
      Memory.Machine.free m ~mfn ~order:4;
      Alcotest.(check int) "all back" (Memory.Machine.frames_per_node m)
        (Memory.Machine.free_frames_on m 2)
  | None -> Alcotest.fail "alloc failed"

let test_machine_used_per_node () =
  let m = machine () in
  ignore (Memory.Machine.alloc_frame m ~node:1);
  ignore (Memory.Machine.alloc_frame m ~node:1);
  ignore (Memory.Machine.alloc_frame m ~node:6);
  let used node = Memory.Machine.frames_per_node m - Memory.Machine.free_frames_on m node in
  Alcotest.(check int) "node 1" 2 (used 1);
  Alcotest.(check int) "node 6" 1 (used 6);
  Alcotest.(check int) "node 0" 0 (used 0)

let test_machine_rejects_bad_scale () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Machine.create: page_scale must be a positive power of two") (fun () ->
      ignore (Memory.Machine.create ~page_scale:3 (Numa.Amd48.topology ())))

let test_machine_offline_node () =
  let m = Memory.Machine.create ~page_scale:262144 (Numa.Amd48.topology ()) in
  (* 16 scaled frames per node. *)
  let held =
    List.init 4 (fun _ ->
        match Memory.Machine.alloc_frame m ~node:2 with Some mfn -> mfn | None -> -1)
  in
  let offlined, pending = Memory.Machine.offline_node m 2 in
  Alcotest.(check int) "free frames retired now" 12 offlined;
  Alcotest.(check int) "allocated ones pend" 4 pending;
  Alcotest.(check int) "node 2 empty" 0 (Memory.Machine.free_frames_on m 2);
  Alcotest.(check int) "offlined on node" 12 (Memory.Machine.offlined_frames_on m 2);
  (* Frees retire instead of recycling. *)
  List.iter (fun mfn -> Memory.Machine.free m ~mfn ~order:0) held;
  Alcotest.(check int) "all retired" 16 (Memory.Machine.offlined_frames_on m 2);
  Alcotest.(check bool) "mfn retired" true (Memory.Machine.is_offlined m (List.hd held));
  Alcotest.(check int) "still nothing free" 0 (Memory.Machine.free_frames_on m 2);
  (* Recovery returns everything. *)
  let restored = Memory.Machine.online_node m 2 in
  Alcotest.(check int) "restored" 16 restored;
  Alcotest.(check int) "free again" 16 (Memory.Machine.free_frames_on m 2)

(* Boot cost scales with what the guest touches: building the AMD48
   machine at page scale 1 (33.5 M frames) must not allocate per-frame
   state. *)
let test_machine_create_is_sparse () =
  let topo = Numa.Amd48.topology () in
  let before = Gc.allocated_bytes () in
  let m = Memory.Machine.create ~page_scale:1 topo in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity m);
  if bytes >= 1048576.0 then Alcotest.failf "Machine.create allocated %.0f bytes" bytes

let test_machine_free_run () =
  let m = machine () in
  let fpn = Memory.Machine.frames_per_node m in
  let order = 4 in
  match Memory.Machine.alloc_on m ~node:1 ~order with
  | None -> Alcotest.fail "alloc failed"
  | Some mfn ->
      Memory.Machine.split_block m ~mfn ~order;
      Memory.Machine.free_run m ~mfn ~frames:(1 lsl order);
      Alcotest.(check int) "all back" fpn (Memory.Machine.free_frames_on m 1);
      Alcotest.check_raises "spans nodes" (Invalid_argument "Machine.free_run: run spans nodes")
        (fun () -> Memory.Machine.free_run m ~mfn:(fpn - 1) ~frames:2)

let test_machine_mask_vetoes_alloc () =
  let topo = Numa.Amd48.topology () in
  let m = Memory.Machine.create ~page_scale:262144 topo in
  Numa.Topology.set_node_online topo 5 false;
  Alcotest.(check bool) "masked node refuses" true (Memory.Machine.alloc_on m ~node:5 ~order:0 = None);
  (match Memory.Machine.alloc_frame_fallback m ~prefer:5 with
  | Some mfn ->
      Alcotest.(check bool) "fallback avoids masked node" true
        (Memory.Machine.node_of_mfn m mfn <> 5)
  | None -> Alcotest.fail "fallback failed");
  Numa.Topology.set_node_online topo 5 true;
  Alcotest.(check bool) "online again" true (Memory.Machine.alloc_on m ~node:5 ~order:0 <> None)

let suite =
  [
    ( "memory.page",
      [
        Alcotest.test_case "constants" `Quick test_page_constants;
        Alcotest.test_case "orders derived from units" `Quick test_page_orders_from_units;
      ] );
    ( "memory.buddy",
      [
        Alcotest.test_case "exhausts exactly" `Quick test_buddy_exhausts_exactly;
        Alcotest.test_case "split and coalesce" `Quick test_buddy_split_and_coalesce;
        Alcotest.test_case "alignment" `Quick test_buddy_alloc_alignment;
        Alcotest.test_case "double free" `Quick test_buddy_double_free_detected;
        Alcotest.test_case "out of range free" `Quick test_buddy_out_of_range_free;
        Alcotest.test_case "non power of two size" `Quick test_buddy_non_power_of_two;
        Alcotest.test_case "nonzero base" `Quick test_buddy_nonzero_base;
        Alcotest.test_case "reserve hole" `Quick test_buddy_reserve;
        Alcotest.test_case "fragmentation fallback" `Quick test_buddy_fragmentation_fallback;
        QCheck_alcotest.to_alcotest prop_buddy_trace;
        QCheck_alcotest.to_alcotest prop_buddy_partition;
        QCheck_alcotest.to_alcotest prop_buddy_full_free_coalesces;
        QCheck_alcotest.to_alcotest prop_buddy_free_run_equals_per_frame;
      ] );
    ( "memory.buddy.offline",
      [
        Alcotest.test_case "offline free range" `Quick test_offline_free_range;
        Alcotest.test_case "offline allocated pends" `Quick test_offline_allocated_pends;
        Alcotest.test_case "online restores" `Quick test_online_range_restores;
        Alcotest.test_case "online cancels pending" `Quick test_online_cancels_pending;
        QCheck_alcotest.to_alcotest prop_buddy_offline_partition;
      ] );
    ( "memory.machine",
      [
        Alcotest.test_case "layout" `Quick test_machine_layout;
        Alcotest.test_case "alloc on node" `Quick test_machine_alloc_on_node;
        Alcotest.test_case "first-touch fallback" `Quick test_machine_fallback;
        Alcotest.test_case "scaled orders" `Quick test_machine_scaled_orders;
        Alcotest.test_case "free returns to node" `Quick test_machine_free_respects_node;
        Alcotest.test_case "used per node" `Quick test_machine_used_per_node;
        Alcotest.test_case "rejects bad scale" `Quick test_machine_rejects_bad_scale;
        Alcotest.test_case "offline node" `Quick test_machine_offline_node;
        Alcotest.test_case "mask vetoes alloc" `Quick test_machine_mask_vetoes_alloc;
        Alcotest.test_case "create is sparse" `Quick test_machine_create_is_sparse;
        Alcotest.test_case "free run" `Quick test_machine_free_run;
      ] );
  ]
