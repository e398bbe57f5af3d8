(* Tests for the xen library: costs, p2m, domain, system, ipi, pci, dma. *)

let check_us = Alcotest.(check (float 1e-7))

(* ------------------------------- costs ----------------------------- *)

let test_costs_dma_calibration () =
  (* Section 2.2.2: 4 KiB reads cost 74/307/186 us over the three paths. *)
  let c = Xen.Costs.default in
  check_us "native 4k" 74e-6 (Xen.Costs.disk_request c ~path:`Native ~bytes:4096);
  check_us "pv 4k" 307e-6 (Xen.Costs.disk_request c ~path:`Pv ~bytes:4096);
  check_us "passthrough 4k" 186e-6 (Xen.Costs.disk_request c ~path:`Passthrough ~bytes:4096)

let test_costs_overhead_amortises () =
  (* "the larger the amount of bytes read, the lower the overhead". *)
  let c = Xen.Costs.default in
  let ratio bytes =
    Xen.Costs.disk_request c ~path:`Pv ~bytes /. Xen.Costs.disk_request c ~path:`Native ~bytes
  in
  Alcotest.(check bool) "4k pv ratio > 1m pv ratio" true (ratio 4096 > ratio (1024 * 1024));
  Alcotest.(check bool) "1m ratio close to 1" true (ratio (1024 * 1024) < 1.1)

let test_costs_ipi () =
  let c = Xen.Costs.default in
  check_us "native ipi" 0.9e-6 c.Xen.Costs.ipi_native;
  check_us "guest ipi" 10.9e-6 c.Xen.Costs.ipi_guest

(* -------------------------------- p2m ------------------------------ *)

let test_p2m_basic () =
  let p = Xen.P2m.create ~frames:8 () in
  Alcotest.(check int) "empty" 0 (Xen.P2m.mapped_count p);
  Alcotest.(check bool) "invalid" true (Xen.P2m.get p 0 = Xen.P2m.Invalid);
  Alcotest.(check int) "invalid mfn_of" (-1) (Xen.P2m.mfn_of p 0);
  Xen.P2m.set p 0 ~mfn:42 ~writable:true;
  Alcotest.(check int) "mfn_of" 42 (Xen.P2m.mfn_of p 0);
  (match Xen.P2m.get p 0 with
  | Xen.P2m.Mapped { mfn; writable } ->
      Alcotest.(check int) "mfn" 42 mfn;
      Alcotest.(check bool) "writable" true writable
  | Xen.P2m.Invalid -> Alcotest.fail "should be mapped");
  Alcotest.(check int) "one mapped" 1 (Xen.P2m.mapped_count p)

let test_p2m_invalidate () =
  let p = Xen.P2m.create ~frames:4 () in
  Xen.P2m.set p 2 ~mfn:7 ~writable:false;
  Alcotest.(check (option int)) "returns old mfn" (Some 7) (Xen.P2m.invalidate p 2);
  Alcotest.(check (option int)) "already invalid" None (Xen.P2m.invalidate p 2);
  Alcotest.(check int) "mfn_of invalidated" (-1) (Xen.P2m.mfn_of p 2);
  Alcotest.(check int) "none mapped" 0 (Xen.P2m.mapped_count p)

let test_p2m_write_protect () =
  let p = Xen.P2m.create ~frames:4 () in
  Xen.P2m.set p 1 ~mfn:9 ~writable:true;
  Xen.P2m.write_protect p 1;
  (match Xen.P2m.get p 1 with
  | Xen.P2m.Mapped { writable; _ } -> Alcotest.(check bool) "read-only" false writable
  | Xen.P2m.Invalid -> Alcotest.fail "still mapped");
  (* No-op on invalid entries. *)
  Xen.P2m.write_protect p 0;
  Alcotest.(check bool) "entry 0 untouched" true (Xen.P2m.get p 0 = Xen.P2m.Invalid)

let test_p2m_remap_keeps_count () =
  let p = Xen.P2m.create ~frames:4 () in
  Xen.P2m.set p 0 ~mfn:1 ~writable:true;
  Xen.P2m.set p 0 ~mfn:2 ~writable:true;
  Alcotest.(check int) "still one" 1 (Xen.P2m.mapped_count p)

let test_p2m_iteration () =
  let p = Xen.P2m.create ~frames:8 () in
  Xen.P2m.set p 1 ~mfn:10 ~writable:true;
  Xen.P2m.set p 5 ~mfn:50 ~writable:true;
  let pairs = ref [] in
  Xen.P2m.iter_mapped p (fun pfn mfn -> pairs := (pfn, mfn) :: !pairs);
  Alcotest.(check (list (pair int int))) "iter" [ (5, 50); (1, 10) ] !pairs

let test_p2m_bounds () =
  let p = Xen.P2m.create ~frames:4 () in
  Alcotest.check_raises "out of range" (Invalid_argument "P2m: pfn out of range") (fun () ->
      ignore (Xen.P2m.get p 4));
  Alcotest.check_raises "mfn_of out of range" (Invalid_argument "P2m: pfn out of range")
    (fun () -> ignore (Xen.P2m.mfn_of p 4))

let prop_p2m_set_get_roundtrip =
  QCheck.Test.make ~name:"p2m set/get roundtrip" ~count:300
    QCheck.(triple (int_range 0 63) (int_range 0 10000) bool)
    (fun (pfn, mfn, writable) ->
      let p = Xen.P2m.create ~frames:64 () in
      Xen.P2m.set p pfn ~mfn ~writable;
      Xen.P2m.get p pfn = Xen.P2m.Mapped { mfn; writable } && Xen.P2m.mfn_of p pfn = mfn)

(* --------------------------- p2m superpages ------------------------ *)

let test_p2m_superpage_map_lookup () =
  let p = Xen.P2m.create ~sp_frames:8 ~frames:32 () in
  Xen.P2m.map_superpage p ~pfn:8 ~mfn:64 ~writable:true;
  Alcotest.(check int) "one superpage" 1 (Xen.P2m.superpage_count p);
  Alcotest.(check int) "8 frames covered" 8 (Xen.P2m.superpage_frames p);
  Alcotest.(check int) "8 mapped" 8 (Xen.P2m.mapped_count p);
  for i = 0 to 7 do
    Alcotest.(check bool) "inside" true (Xen.P2m.is_superpage p (8 + i));
    Alcotest.(check bool) "contiguous mfn" true
      (Xen.P2m.get p (8 + i) = Xen.P2m.Mapped { mfn = 64 + i; writable = true })
  done;
  Alcotest.(check bool) "outside" false (Xen.P2m.is_superpage p 0);
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent p)

let test_p2m_superpage_splinter_preserves_lookups () =
  let p = Xen.P2m.create ~sp_frames:8 ~frames:16 () in
  Xen.P2m.map_superpage p ~pfn:0 ~mfn:32 ~writable:true;
  Alcotest.(check int) "8 demoted" 8 (Xen.P2m.splinter p 3);
  Alcotest.(check int) "no superpages" 0 (Xen.P2m.superpage_count p);
  Alcotest.(check int) "counter" 1 (Xen.P2m.splinter_count p);
  for i = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "frame %d unchanged" i) true
      (Xen.P2m.get p i = Xen.P2m.Mapped { mfn = 32 + i; writable = true })
  done;
  Alcotest.(check int) "second splinter is a no-op" 0 (Xen.P2m.splinter p 3);
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent p)

let test_p2m_superpage_mutation_splinters () =
  let p = Xen.P2m.create ~sp_frames:4 ~frames:8 () in
  Xen.P2m.map_superpage p ~pfn:4 ~mfn:16 ~writable:true;
  (* A single-frame invalidate inside the extent demotes it first; the
     untouched neighbours keep their exact translations. *)
  Alcotest.(check (option int)) "old mfn back" (Some 18) (Xen.P2m.invalidate p 6);
  Alcotest.(check int) "demoted" 1 (Xen.P2m.splinter_count p);
  Alcotest.(check bool) "not a superpage now" false (Xen.P2m.is_superpage p 4);
  Alcotest.(check bool) "neighbour stable" true
    (Xen.P2m.get p 5 = Xen.P2m.Mapped { mfn = 17; writable = true });
  (* write_protect on a fresh superpage also splinters. *)
  let q = Xen.P2m.create ~sp_frames:4 ~frames:4 () in
  Xen.P2m.map_superpage q ~pfn:0 ~mfn:0 ~writable:true;
  Xen.P2m.write_protect q 2;
  Alcotest.(check int) "wp splinters" 1 (Xen.P2m.splinter_count q);
  Alcotest.(check bool) "only the target is read-only" true
    (Xen.P2m.get q 1 = Xen.P2m.Mapped { mfn = 1; writable = true }
    && Xen.P2m.get q 2 = Xen.P2m.Mapped { mfn = 2; writable = false });
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent q)

let test_p2m_superpage_promote () =
  let p = Xen.P2m.create ~sp_frames:4 ~frames:8 () in
  (* Contiguous, aligned, uniform: promotable. *)
  for i = 0 to 3 do
    Xen.P2m.set p i ~mfn:(8 + i) ~writable:true
  done;
  Alcotest.(check bool) "promotes" true (Xen.P2m.promote p ~pfn:0);
  Alcotest.(check bool) "is superpage" true (Xen.P2m.is_superpage p 0);
  Alcotest.(check int) "counter" 1 (Xen.P2m.promote_count p);
  Alcotest.(check bool) "idempotence guard" false (Xen.P2m.promote p ~pfn:0);
  (* Non-contiguous mfns: not promotable. *)
  Xen.P2m.set p 4 ~mfn:20 ~writable:true;
  Xen.P2m.set p 5 ~mfn:22 ~writable:true;
  Xen.P2m.set p 6 ~mfn:23 ~writable:true;
  Xen.P2m.set p 7 ~mfn:24 ~writable:true;
  Alcotest.(check bool) "rejects gaps" false (Xen.P2m.promote p ~pfn:4);
  Alcotest.check_raises "unaligned base" (Invalid_argument "P2m.promote: pfn not aligned")
    (fun () -> ignore (Xen.P2m.promote p ~pfn:2));
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent p)

let test_p2m_superpage_map_errors () =
  let p = Xen.P2m.create ~sp_frames:4 ~frames:8 () in
  Alcotest.check_raises "unaligned pfn"
    (Invalid_argument "P2m.map_superpage: pfn not aligned") (fun () ->
      Xen.P2m.map_superpage p ~pfn:2 ~mfn:0 ~writable:true);
  Alcotest.check_raises "unaligned mfn"
    (Invalid_argument "P2m.map_superpage: mfn not aligned") (fun () ->
      Xen.P2m.map_superpage p ~pfn:0 ~mfn:3 ~writable:true);
  Xen.P2m.set p 5 ~mfn:9 ~writable:true;
  Alcotest.check_raises "occupied extent"
    (Invalid_argument "P2m.map_superpage: extent not empty") (fun () ->
      Xen.P2m.map_superpage p ~pfn:4 ~mfn:8 ~writable:true);
  let q = Xen.P2m.create ~sp_frames:1 ~frames:4 () in
  Alcotest.check_raises "superpages disabled"
    (Invalid_argument "P2m.map_superpage: sp_frames is 1") (fun () ->
      Xen.P2m.map_superpage q ~pfn:0 ~mfn:0 ~writable:true)

(* Satellite property: any interleaving of map / map_superpage /
   splinter / promote / invalidate / write_protect keeps the table
   consistent, and splintering an extent never changes the translation
   of frames that were not themselves mutated. *)
let prop_p2m_superpage_interleavings =
  let frames = 64 and sp = 8 in
  QCheck.Test.make ~name:"p2m superpage ops keep the table consistent" ~count:200
    QCheck.(pair int (int_range 20 120))
    (fun (seed, steps) ->
      let p = Xen.P2m.create ~sp_frames:sp ~frames () in
      let rng = Sim.Rng.create ~seed in
      for _ = 1 to steps do
        let pfn = Sim.Rng.int rng frames in
        let base = pfn - (pfn mod sp) in
        (* Snapshot the extent: frames other than [pfn] must translate
           identically after any single-frame mutation, superpage or
           not. *)
        let before = Array.init sp (fun i -> Xen.P2m.get p (base + i)) in
        let exempt =
          match Sim.Rng.int rng 6 with
          | 0 ->
              Xen.P2m.set p pfn ~mfn:(Sim.Rng.int rng 4096) ~writable:(Sim.Rng.int rng 2 = 1);
              `Frame pfn
          | 1 ->
              ignore (Xen.P2m.invalidate p pfn);
              `Frame pfn
          | 2 ->
              Xen.P2m.write_protect p pfn;
              `Frame pfn
          | 3 ->
              ignore (Xen.P2m.splinter p pfn);
              `Nothing (* splinter alone must not change any translation *)
          | 4 ->
              ignore (Xen.P2m.promote p ~pfn:base);
              `Nothing
          | _ ->
              let empty = ref true in
              for i = 0 to sp - 1 do
                if Xen.P2m.get p (base + i) <> Xen.P2m.Invalid then empty := false
              done;
              if !empty then begin
                Xen.P2m.map_superpage p ~pfn:base
                  ~mfn:(sp * Sim.Rng.int rng 512)
                  ~writable:(Sim.Rng.int rng 2 = 1);
                `Extent (* the whole extent legitimately changed *)
              end
              else `Nothing
        in
        if not (Xen.P2m.check_consistent p) then
          QCheck.Test.fail_reportf "inconsistent table after op on pfn %d" pfn;
        (match exempt with
        | `Extent -> ()
        | (`Frame _ | `Nothing) as e ->
            Array.iteri
              (fun i old ->
                let f = base + i in
                if e <> `Frame f && Xen.P2m.get p f <> old then
                  QCheck.Test.fail_reportf
                    "untouched frame %d changed translation (op on %d)" f pfn)
              before)
      done;
      (* Cumulative counters never go backwards and frames conserve. *)
      Xen.P2m.superpage_frames p <= Xen.P2m.mapped_count p)

(* ----------------------------- p2m batches ------------------------- *)

(* Twin tables grown through identical random superpage / per-frame
   maps, so a batched mutation on one can be checked against the
   per-page loop on the other. *)
let build_twin_p2m ~frames ~sp ~seed =
  let a = Xen.P2m.create ~sp_frames:sp ~frames () in
  let b = Xen.P2m.create ~sp_frames:sp ~frames () in
  let rng = Sim.Rng.create ~seed in
  for e = 0 to (frames / sp) - 1 do
    let base = e * sp in
    match Sim.Rng.int rng 3 with
    | 0 when sp > 1 ->
        let mfn = sp * Sim.Rng.int rng 512 in
        let w = Sim.Rng.int rng 2 = 1 in
        Xen.P2m.map_superpage a ~pfn:base ~mfn ~writable:w;
        Xen.P2m.map_superpage b ~pfn:base ~mfn ~writable:w
    | 1 ->
        for i = 0 to sp - 1 do
          if Sim.Rng.int rng 2 = 1 then begin
            let mfn = Sim.Rng.int rng 4096 and w = Sim.Rng.int rng 2 = 1 in
            Xen.P2m.set a (base + i) ~mfn ~writable:w;
            Xen.P2m.set b (base + i) ~mfn ~writable:w
          end
        done
    | _ -> ()
  done;
  (a, b)

let p2m_dump p =
  Array.init (Xen.P2m.frames p) (fun pfn ->
      (Xen.P2m.get p pfn, Xen.P2m.is_superpage p pfn))

(* Satellite property: a batched mutation leaves the table in exactly
   the state of the per-page loop over the same ops, whatever the op
   order, duplicates included. *)
let prop_p2m_invalidate_batch_equals_per_page =
  let frames = 64 and sp = 8 in
  QCheck.Test.make ~name:"p2m invalidate_batch = per-page invalidate" ~count:300
    QCheck.(pair int (small_list (int_range 0 63)))
    (fun (seed, pfns_l) ->
      let a, b = build_twin_p2m ~frames ~sp ~seed in
      let pfns = Array.of_list pfns_l in
      let freed_a = ref [] in
      let stats =
        Xen.P2m.invalidate_batch a
          ~on_free:(fun pfn mfn -> freed_a := (pfn, mfn) :: !freed_a)
          pfns ~n:(Array.length pfns)
      in
      let freed_b = ref [] in
      List.iter
        (fun pfn ->
          match Xen.P2m.invalidate b pfn with
          | Some mfn -> freed_b := (pfn, mfn) :: !freed_b
          | None -> ())
        pfns_l;
      if p2m_dump a <> p2m_dump b then QCheck.Test.fail_report "tables diverged";
      if not (Xen.P2m.check_consistent a) then QCheck.Test.fail_report "inconsistent";
      stats.Xen.P2m.applied = List.length !freed_b
      && List.sort compare !freed_a = List.sort compare !freed_b)

(* Differential property: [invalidate_range] over consecutive pfns is
   [invalidate_batch] over the same pfns — table, version, update
   stream, callback order and stats — with and without superpages and
   an update hook, including ranges that run off the table (both raise
   at the same pfn, having applied the same prefix). *)
let prop_p2m_invalidate_range_equals_batch =
  let frames = 64 in
  QCheck.Test.make ~name:"p2m invalidate_range = invalidate_batch" ~count:300
    QCheck.(quad int bool bool (pair (int_range 0 63) (int_range 0 68)))
    (fun (seed, superpages, hook, (first, n)) ->
      let sp = if superpages then 8 else 1 in
      let a, b = build_twin_p2m ~frames ~sp ~seed in
      let log p =
        let events = ref [] in
        if hook then Xen.P2m.set_on_update p (Some (fun u -> events := `Update u :: !events));
        let on_splinter pfn = events := `Splinter_cb pfn :: !events in
        let on_free pfn mfn = events := `Free_cb (pfn, mfn) :: !events in
        (events, on_splinter, on_free)
      in
      let ev_a, on_splinter_a, on_free_a = log a and ev_b, on_splinter_b, on_free_b = log b in
      let outcome f = match f () with s -> Ok s | exception Invalid_argument m -> Error m in
      let ra =
        outcome (fun () ->
            Xen.P2m.invalidate_range ~on_splinter:on_splinter_a ~on_free:on_free_a a ~first ~n)
      in
      let rb =
        outcome (fun () ->
            Xen.P2m.invalidate_batch b ~on_splinter:on_splinter_b ~on_free:on_free_b
              (Array.init n (fun i -> first + i))
              ~n)
      in
      if ra <> rb then QCheck.Test.fail_report "results or exceptions differ";
      if !ev_a <> !ev_b then QCheck.Test.fail_report "update or callback streams differ";
      p2m_dump a = p2m_dump b
      && Xen.P2m.version a = Xen.P2m.version b
      && Xen.P2m.mapped_count a = Xen.P2m.mapped_count b
      && Xen.P2m.splinter_count a = Xen.P2m.splinter_count b
      && Xen.P2m.check_consistent a)

let prop_p2m_migrate_batch_equals_per_page =
  let frames = 64 and sp = 8 in
  QCheck.Test.make ~name:"p2m migrate_batch = per-page remap" ~count:300
    QCheck.(pair int (small_list (pair (int_range 0 63) (int_range 0 4095))))
    (fun (seed, moves) ->
      (* Per-page reference for a remap: read the writable bit, set the
         new mfn.  Duplicated pfns legitimately remap twice; the batch
         (sorted) and the loop (list order) end on the same final mfn
         only when each pfn appears once, so dedup the spec. *)
      let seen = Hashtbl.create 16 in
      let moves =
        List.filter
          (fun (pfn, _) ->
            if Hashtbl.mem seen pfn then false else (Hashtbl.add seen pfn (); true))
          moves
      in
      let a, b = build_twin_p2m ~frames ~sp ~seed in
      let pfns = Array.of_list (List.map fst moves) in
      let mfns = Array.of_list (List.map snd moves) in
      let displaced_a = ref [] in
      let stats =
        Xen.P2m.migrate_batch a pfns mfns ~n:(Array.length pfns)
          ~f:(fun pfn ~old_mfn -> displaced_a := (pfn, old_mfn) :: !displaced_a)
      in
      let displaced_b = ref [] in
      List.iter
        (fun (pfn, mfn) ->
          match Xen.P2m.get b pfn with
          | Xen.P2m.Invalid -> ()
          | Xen.P2m.Mapped { mfn = old_mfn; writable } ->
              Xen.P2m.set b pfn ~mfn ~writable;
              displaced_b := (pfn, old_mfn) :: !displaced_b)
        moves;
      if p2m_dump a <> p2m_dump b then QCheck.Test.fail_report "tables diverged";
      stats.Xen.P2m.applied = List.length !displaced_b
      && List.sort compare !displaced_a = List.sort compare !displaced_b
      && Xen.P2m.check_consistent a)

(* Batched replay: the pages a pv queue's flush delivers as final
   Releases are the Release winners of a newest-first hashtable
   replay of the same ops, and feeding them through invalidate_batch
   leaves the P2M exactly as per-page invalidation of those winners. *)
let prop_p2m_batched_replay_equals_per_page =
  let frames = 64 and sp = 8 in
  QCheck.Test.make ~name:"batched pv replay = per-page replay on the p2m" ~count:300
    QCheck.(pair int (small_list (pair bool (int_range 0 63))))
    (fun (seed, spec) ->
      let ops =
        List.map
          (fun (alloc, pfn) -> if alloc then Guest.Pv_queue.Alloc pfn else Guest.Pv_queue.Release pfn)
          spec
      in
      let a, b = build_twin_p2m ~frames ~sp ~seed in
      let batched = ref [] in
      let queue =
        Guest.Pv_queue.create ~partitions:1 ~capacity:(List.length ops + 1) ~frames
          ~flush:(fun batch ->
            let inv =
              Array.of_list
                (List.filter_map
                   (function Guest.Pv_queue.Release pfn -> Some pfn | Guest.Pv_queue.Alloc _ -> None)
                   (Array.to_list batch))
            in
            batched := Array.to_list inv;
            ignore (Xen.P2m.invalidate_batch a inv ~n:(Array.length inv));
            0.0)
          ()
      in
      List.iter (Guest.Pv_queue.record queue) ops;
      Guest.Pv_queue.flush_all queue;
      let seen = Hashtbl.create 16 and per_page = ref [] in
      List.iter
        (fun op ->
          let pfn = Guest.Pv_queue.op_pfn op in
          if not (Hashtbl.mem seen pfn) then begin
            Hashtbl.replace seen pfn ();
            match op with
            | Guest.Pv_queue.Release _ -> per_page := pfn :: !per_page
            | Guest.Pv_queue.Alloc _ -> ()
          end)
        (List.rev ops);
      if List.sort compare !batched <> List.sort compare !per_page then
        QCheck.Test.fail_report "queue and hashtable replays disagree";
      List.iter (fun pfn -> ignore (Xen.P2m.invalidate b pfn)) !per_page;
      p2m_dump a = p2m_dump b && Xen.P2m.check_consistent a)

(* The amortisation guarantee: a batch of n never charges more than n
   unbatched operations, and a 1-element migrate batch charges exactly
   the unbatched cost. *)
let prop_batch_costs_bounded =
  QCheck.Test.make ~name:"batch costs never exceed per-page sums" ~count:300
    QCheck.(pair (int_range 1 4096) (int_range 1 64))
    (fun (n, scale) ->
      let c = Xen.Costs.default in
      let nf = float_of_int n in
      let ops_batch = Xen.Costs.page_ops_batch_time c ~ops:n in
      let ops_sum = nf *. (c.Xen.Costs.hypercall_entry +. c.Xen.Costs.page_op_send) in
      let inv_batch = Xen.Costs.invalidate_batch_time c ~frames:n in
      let inv_sum = nf *. c.Xen.Costs.page_invalidate in
      let page_bytes = 4096 * scale in
      let mig_single =
        (float_of_int scale *. c.Xen.Costs.page_migrate_fixed)
        +. (float_of_int page_bytes *. c.Xen.Costs.copy_byte)
      in
      let mig_batch = Xen.Costs.migrate_batch_time c ~pages:n ~page_bytes ~scale in
      let mig_sum = nf *. mig_single in
      ops_batch <= ops_sum
      && inv_batch <= inv_sum
      && mig_batch <= mig_sum +. (1e-9 *. mig_sum)
      && (n > 1 || abs_float (mig_batch -. mig_single) <= 1e-9 *. mig_single))

(* ------------------------------- system ---------------------------- *)

let make_system ?(page_scale = 262144) () =
  (* 1 GiB scaled frames by default: tiny tables, fast tests. *)
  Xen.System.create ~page_scale (Numa.Amd48.topology ())

let test_system_domain_builder_packs () =
  let s = make_system () in
  (* 12 vCPUs, 2 GiB: needs ceil(12/6) = 2 nodes. *)
  let d =
    Xen.System.create_domain s ~name:"d1" ~kind:Xen.Domain.DomU ~vcpus:12
      ~mem_bytes:(2 * 1024 * 1024 * 1024) ()
  in
  Alcotest.(check (array int)) "2 lowest nodes" [| 0; 1 |] d.Xen.Domain.home_nodes;
  Alcotest.(check int) "12 vcpus pinned" 12 (Array.length d.Xen.Domain.vcpu_pin);
  Array.iter
    (fun pcpu ->
      let node = Numa.Topology.node_of_cpu s.Xen.System.topo pcpu in
      Alcotest.(check bool) "pinned to home" true (node = 0 || node = 1))
    d.Xen.Domain.vcpu_pin

let test_system_domain_memory_bound () =
  let s = make_system () in
  (* 40 GiB needs 3 nodes even with 1 vCPU. *)
  let d =
    Xen.System.create_domain s ~name:"big" ~kind:Xen.Domain.DomU ~vcpus:1
      ~mem_bytes:(40 * 1024 * 1024 * 1024) ()
  in
  Alcotest.(check int) "3 home nodes" 3 (Array.length d.Xen.Domain.home_nodes)

let test_system_second_domain_avoids_first () =
  let s = make_system () in
  let _d1 =
    Xen.System.create_domain s ~name:"a" ~kind:Xen.Domain.DomU ~vcpus:24
      ~mem_bytes:(1 lsl 30) ()
  in
  let d2 =
    Xen.System.create_domain s ~name:"b" ~kind:Xen.Domain.DomU ~vcpus:24
      ~mem_bytes:(1 lsl 30) ()
  in
  (* The first domain packed nodes 0-3; the second must land on 4-7. *)
  Alcotest.(check (array int)) "disjoint homes" [| 4; 5; 6; 7 |] d2.Xen.Domain.home_nodes

let test_system_consolidation_shares () =
  let s = make_system () in
  let d1 =
    Xen.System.create_domain s ~name:"a" ~kind:Xen.Domain.DomU ~vcpus:48
      ~mem_bytes:(1 lsl 30) ()
  in
  let _d2 =
    Xen.System.create_domain s ~name:"b" ~kind:Xen.Domain.DomU ~vcpus:48
      ~mem_bytes:(1 lsl 30) ()
  in
  (* Every pCPU runs two vCPUs. *)
  Alcotest.(check int) "two vCPUs per pCPU" 2 s.Xen.System.pcpu_load.(d1.Xen.Domain.vcpu_pin.(0))

let test_system_explicit_homes_and_destroy () =
  let s = make_system () in
  let d =
    Xen.System.create_domain s ~name:"pinned" ~kind:Xen.Domain.DomU ~vcpus:6
      ~mem_bytes:(1 lsl 30) ~home_nodes:[| 5 |] ()
  in
  Alcotest.(check (array int)) "forced home" [| 5 |] d.Xen.Domain.home_nodes;
  let free_before = Memory.Machine.free_frames s.Xen.System.machine in
  (* Map some memory then destroy: frames must come back. *)
  (match Memory.Machine.alloc_frame s.Xen.System.machine ~node:5 with
  | Some mfn -> Xen.P2m.set d.Xen.Domain.p2m 0 ~mfn ~writable:true
  | None -> Alcotest.fail "alloc failed");
  Xen.System.destroy_domain s d;
  Alcotest.(check int) "frames restored" free_before (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check bool) "domain gone" false
    (List.exists (fun d' -> d'.Xen.Domain.id = d.Xen.Domain.id) s.Xen.System.domains)

let test_domain_fault_dispatch () =
  let s = make_system () in
  let d =
    Xen.System.create_domain s ~name:"f" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(1 lsl 30) ()
  in
  Alcotest.(check bool) "no handler" false
    (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn:0 ~cpu:0);
  d.Xen.Domain.fault_handler <-
    Some (fun pfn ~cpu:_ -> Xen.P2m.set d.Xen.Domain.p2m pfn ~mfn:3 ~writable:true);
  Alcotest.(check bool) "handler maps" true
    (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn:0 ~cpu:0);
  Alcotest.(check int) "2 faults accounted" 2 d.Xen.Domain.account.Xen.Domain.fault_count;
  Alcotest.(check bool) "fault time accrued" true
    (d.Xen.Domain.account.Xen.Domain.fault_time > 0.0)

(* --------------------------------- ipi ----------------------------- *)

let test_ipi_totals () =
  check_us "native total (Figure 5)" 0.9e-6 (Xen.Ipi.total Xen.Ipi.Native);
  check_us "guest total (Figure 5)" 10.9e-6 (Xen.Ipi.total Xen.Ipi.Guest)

let test_ipi_stage_sums () =
  let native = List.fold_left (fun acc s -> acc +. s.Xen.Ipi.native) 0.0 Xen.Ipi.stages in
  let guest = List.fold_left (fun acc s -> acc +. s.Xen.Ipi.guest) 0.0 Xen.Ipi.stages in
  check_us "stages sum native" (Xen.Ipi.total Xen.Ipi.Native) native;
  check_us "stages sum guest" (Xen.Ipi.total Xen.Ipi.Guest) guest

(* --------------------------------- pci ----------------------------- *)

let test_pci_bus_granularity () =
  let s = make_system () in
  let d1 = Xen.System.create_domain s ~name:"a" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(1 lsl 30) () in
  let d2 = Xen.System.create_domain s ~name:"b" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(1 lsl 30) () in
  let pci = Xen.Pci.amd48 () in
  (match Xen.Pci.assign_bus pci ~bus_id:1 d1 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "d1 has disk passthrough" true
    (Xen.Pci.domain_has_passthrough pci d1 Xen.Pci.Disk);
  (* The whole bus is taken: d2 cannot share it. *)
  (match Xen.Pci.assign_bus pci ~bus_id:1 d2 with
  | Ok () -> Alcotest.fail "bus sharing must be rejected"
  | Error _ -> ());
  (* Re-assignment to the same domain is idempotent. *)
  (match Xen.Pci.assign_bus pci ~bus_id:1 d1 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "d2 has none" false (Xen.Pci.domain_has_passthrough pci d2 Xen.Pci.Disk)

let test_pci_amd48_buses () =
  let pci = Xen.Pci.amd48 () in
  let buses = Xen.Pci.buses pci in
  Alcotest.(check int) "two buses" 2 (List.length buses);
  Alcotest.(check (list int)) "on nodes 0 and 6" [ 0; 6 ]
    (List.map (fun b -> b.Xen.Pci.node) buses)

(* ------------------------------ hypercall --------------------------- *)

let test_hypercall_numbers () =
  Alcotest.(check int) "set_numa_policy" 48 (Xen.Hypercall.nr Xen.Hypercall.Set_numa_policy);
  Alcotest.(check int) "page_ops" 49 (Xen.Hypercall.nr Xen.Hypercall.Page_ops);
  Alcotest.(check int) "carrefour" 50 (Xen.Hypercall.nr Xen.Hypercall.Carrefour_read_metrics)

(* (class, arg) of every hypercall event in the stream, oldest first. *)
let hypercall_events stream =
  List.filter_map
    (fun (_, e) ->
      match e.Obs.Event.cls with
      | Obs.Event.Hypercall_entry -> Some (`Entry, e.Obs.Event.arg)
      | Obs.Event.Hypercall_exit -> Some (`Exit, e.Obs.Event.arg)
      | _ -> None)
    (Obs.Stream.events stream)

let test_hypercall_accounting () =
  let stream = Obs.Stream.create ~capacity:64 ~label:"hc" () in
  Xen.Hypercall.record ~obs:stream Xen.Hypercall.Page_ops ~time:1e-6;
  Xen.Hypercall.record ~obs:stream Xen.Hypercall.Page_ops ~time:2e-6;
  Xen.Hypercall.record ~obs:stream Xen.Hypercall.Set_numa_policy ~time:5e-7;
  Alcotest.(check bool) "entry carries the number, exit the time in ns" true
    (hypercall_events stream
    = [ (`Entry, 49); (`Exit, 1000); (`Entry, 49); (`Exit, 2000); (`Entry, 48); (`Exit, 500) ])

(* Each hypercall is charged exactly once: one entry event per call,
   and the domain's hypercall time grows by exactly what the calls
   cost. *)
let test_hypercall_charged_once_via_manager () =
  let s = make_system () in
  let d = Xen.System.create_domain s ~name:"hc" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(4 * 1024 * 1024 * 1024) () in
  let rng = Sim.Rng.create ~seed:13 in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_4k ~rng in
  let stream = Obs.Stream.create ~capacity:4096 ~label:"hc" () in
  Xen.System.set_obs s (Some stream);
  let before = d.Xen.Domain.account.Xen.Domain.hypercall_time in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let page_ops = Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0 |] in
  let entries = List.filter (fun (k, _) -> k = `Entry) (hypercall_events stream) in
  Alcotest.(check (list int)) "one set_numa_policy, then one page_ops" [ 48; 49 ]
    (List.map snd entries);
  Alcotest.(check (float 1e-15)) "each call charged once"
    (s.Xen.System.costs.Xen.Costs.hypercall_entry +. page_ops)
    (d.Xen.Domain.account.Xen.Domain.hypercall_time -. before)

(* ------------------------------- balloon ---------------------------- *)

let test_balloon_vs_page_ops_queue () =
  (* The contrast of Section 4.2.3: a page released through the
     page-ops queue stays usable (its next touch just faults and is
     remapped), while a ballooned page would be gone until deflation —
     which is why ballooning cannot implement first-touch. *)
  let s = make_system () in
  let d = Xen.System.create_domain s ~name:"q" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(4 * 1024 * 1024 * 1024) () in
  let rng = Sim.Rng.create ~seed:9 in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_4k ~rng in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0 |]);
  (* Reallocate and touch: the hypervisor fault path restores it. *)
  Alcotest.(check bool) "touch after queue release works" true
    (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn:0 ~cpu:d.Xen.Domain.vcpu_pin.(0));
  Alcotest.(check bool) "remapped" true (Xen.P2m.get d.Xen.Domain.p2m 0 <> Xen.P2m.Invalid)

(* --------------------------------- dma ----------------------------- *)

let io_setup () =
  let s = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
  let d = Xen.System.create_domain s ~name:"io" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(16 * 1024 * 1024) () in
  let rng = Sim.Rng.create ~seed:1 in
  let manager = Policies.Manager.attach s d ~boot:Policies.Spec.round_4k ~rng in
  let pci = Xen.Pci.amd48 () in
  (match Xen.Pci.assign_bus pci ~bus_id:1 d with Ok () -> () | Error m -> failwith m);
  (s, d, manager, pci)

let test_dma_paths () =
  let s, d, _m, pci = io_setup () in
  (match Xen.Dma.read s d ~pci ~path:Xen.Dma.Native ~buffer:[] ~bytes:4096 with
  | Ok t -> check_us "native" 74e-6 t
  | Error _ -> Alcotest.fail "native failed");
  (match Xen.Dma.read s d ~pci ~path:Xen.Dma.Pv ~buffer:[ 0 ] ~bytes:4096 with
  | Ok t -> check_us "pv" 307e-6 t
  | Error _ -> Alcotest.fail "pv failed");
  (match Xen.Dma.read s d ~pci ~path:Xen.Dma.Passthrough ~buffer:[ 0 ] ~bytes:4096 with
  | Ok t -> check_us "passthrough" 186e-6 t
  | Error _ -> Alcotest.fail "passthrough failed")

let test_dma_iommu_fault_on_invalid_entry () =
  let s, d, manager, pci = io_setup () in
  (match Policies.Manager.set_policy manager Policies.Spec.first_touch with
  | Ok () -> ()
  | Error m -> failwith m);
  ignore (Policies.Manager.release_free_range manager ~first:5 ~count:1);
  Alcotest.(check bool) "entry invalidated" true (Xen.P2m.get d.Xen.Domain.p2m 5 = Xen.P2m.Invalid);
  (match Xen.Dma.read s d ~pci ~path:Xen.Dma.Passthrough ~buffer:[ 4; 5 ] ~bytes:8192 with
  | Error (Xen.Dma.Iommu_fault { pfn }) -> Alcotest.(check int) "faulting pfn" 5 pfn
  | Ok _ -> Alcotest.fail "IOMMU must abort on invalid entry"
  | Error Xen.Dma.No_passthrough_bus -> Alcotest.fail "bus is assigned");
  (* The pv path recovers synchronously and remaps the page. *)
  (match Xen.Dma.read s d ~pci ~path:Xen.Dma.Pv ~buffer:[ 4; 5 ] ~bytes:8192 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pv path must recover");
  Alcotest.(check bool) "page remapped by pv fault" true
    (Xen.P2m.get d.Xen.Domain.p2m 5 <> Xen.P2m.Invalid)

let test_dma_requires_bus () =
  let s = Xen.System.create ~page_scale:1 (Numa.Amd48.topology ()) in
  let d = Xen.System.create_domain s ~name:"nobus" ~kind:Xen.Domain.DomU ~vcpus:1 ~mem_bytes:(16 * 1024 * 1024) () in
  let pci = Xen.Pci.amd48 () in
  match Xen.Dma.read s d ~pci ~path:Xen.Dma.Passthrough ~buffer:[] ~bytes:4096 with
  | Error Xen.Dma.No_passthrough_bus -> ()
  | Ok _ | Error _ -> Alcotest.fail "must require a passthrough bus"

(* -------------------------------- pt ------------------------------- *)

let test_pt_level_node () =
  let pt = Xen.Pt.create ~home_node:2 ~frames:64 ~sp_frames:8 () in
  Alcotest.(check bool) "not replicated" false (Xen.Pt.replicated pt);
  Alcotest.(check int) "no mirrors" 0 (Xen.Pt.replica_count pt);
  for level = 0 to Xen.Pt.levels - 1 do
    Alcotest.(check int) "every level on the home node" 2
      (Xen.Pt.level_node pt ~level ~node:5)
  done;
  Alcotest.check_raises "bad level" (Invalid_argument "Pt.level_node: level out of range")
    (fun () -> ignore (Xen.Pt.level_node pt ~level:Xen.Pt.levels ~node:0));
  let rep =
    Xen.Pt.create ~replicate_nodes:[| 0; 3 |] ~home_node:0 ~frames:64 ~sp_frames:8 ()
  in
  Alcotest.(check bool) "replicated" true (Xen.Pt.replicated rep);
  Alcotest.(check int) "two mirrors" 2 (Xen.Pt.replica_count rep);
  for level = 0 to Xen.Pt.levels - 1 do
    Alcotest.(check int) "walker resolves locally" 5 (Xen.Pt.level_node rep ~level ~node:5)
  done

let test_pt_counters_classify_updates () =
  let pt = Xen.Pt.create ~replicate_nodes:[| 1; 4; 6 |] ~home_node:1 ~frames:64 ~sp_frames:8 () in
  Xen.Pt.apply pt (Xen.P2m.Set { pfn = 3; mfn = 42; writable = true });
  Alcotest.(check int) "set writes all mirrors" 3 (Xen.Pt.replica_updates pt);
  Xen.Pt.apply pt (Xen.P2m.Cleared { pfn = 3 });
  Alcotest.(check int) "clear is a shootdown" 3 (Xen.Pt.replica_invalidations pt);
  Xen.Pt.apply pt (Xen.P2m.Superpage_mapped { pfn = 8; mfn = 64; writable = false });
  Xen.Pt.apply pt (Xen.P2m.Splintered { pfn = 8 });
  Alcotest.(check int) "superpage map is a write" 6 (Xen.Pt.replica_updates pt);
  Alcotest.(check int) "splinter is a shootdown" 6 (Xen.Pt.replica_invalidations pt)

(* Tentpole differential: with a replicated [Pt] subscribed to the
   primary's update stream, any interleaving of per-frame ops,
   superpage ops and batched mutations leaves every mirror
   translation-equivalent to the primary — checked by dump equality
   inside [Pt.check_consistent] after every step burst. *)
let prop_pt_replicas_track_primary =
  let frames = 64 and sp = 8 in
  QCheck.Test.make ~name:"pt replicas track any op interleaving" ~count:200
    QCheck.(pair int (int_range 20 120))
    (fun (seed, steps) ->
      let p = Xen.P2m.create ~sp_frames:sp ~frames () in
      let pt =
        Xen.Pt.create ~replicate_nodes:[| 0; 3; 5 |] ~home_node:0 ~frames ~sp_frames:sp ()
      in
      Xen.P2m.set_on_update p (Some (fun u -> Xen.Pt.apply pt u));
      let rng = Sim.Rng.create ~seed in
      for _ = 1 to steps do
        let pfn = Sim.Rng.int rng frames in
        let base = pfn - (pfn mod sp) in
        match Sim.Rng.int rng 8 with
        | 0 -> Xen.P2m.set p pfn ~mfn:(Sim.Rng.int rng 4096) ~writable:(Sim.Rng.int rng 2 = 1)
        | 1 -> ignore (Xen.P2m.invalidate p pfn)
        | 2 -> Xen.P2m.write_protect p pfn
        | 3 -> ignore (Xen.P2m.splinter p pfn)
        | 4 -> ignore (Xen.P2m.promote p ~pfn:base)
        | 5 ->
            let empty = ref true in
            for i = 0 to sp - 1 do
              if Xen.P2m.get p (base + i) <> Xen.P2m.Invalid then empty := false
            done;
            if !empty then
              Xen.P2m.map_superpage p ~pfn:base
                ~mfn:(sp * Sim.Rng.int rng 512)
                ~writable:(Sim.Rng.int rng 2 = 1)
        | 6 ->
            let n = 1 + Sim.Rng.int rng 8 in
            let pfns = Array.init n (fun _ -> Sim.Rng.int rng frames) in
            ignore (Xen.P2m.invalidate_batch p pfns ~n)
        | _ ->
            let n = 1 + Sim.Rng.int rng 8 in
            let pfns = Array.init n (fun _ -> Sim.Rng.int rng frames) in
            let mfns = Array.init n (fun _ -> Sim.Rng.int rng 4096) in
            ignore (Xen.P2m.migrate_batch p pfns mfns ~n ~f:(fun _ ~old_mfn:_ -> ()))
      done;
      if not (Xen.P2m.check_consistent p) then QCheck.Test.fail_report "primary inconsistent";
      if not (Xen.Pt.check_consistent pt ~primary:p) then
        QCheck.Test.fail_report "mirror diverged from primary";
      true)

(* A mirror is a replay, so per-mirror counters are a pure function of
   the primary's stream: every mirror receives every update, and the
   two counters split the stream exactly. *)
let prop_pt_counters_scale_with_mirrors =
  let frames = 32 and sp = 4 in
  QCheck.Test.make ~name:"pt per-mirror counters scale with mirror count" ~count:200
    QCheck.(triple int (int_range 10 60) (int_range 1 4))
    (fun (seed, steps, mirrors) ->
      let run mirrors =
        let p = Xen.P2m.create ~sp_frames:sp ~frames () in
        let pt =
          Xen.Pt.create
            ~replicate_nodes:(Array.init mirrors (fun i -> i))
            ~home_node:0 ~frames ~sp_frames:sp ()
        in
        Xen.P2m.set_on_update p (Some (fun u -> Xen.Pt.apply pt u));
        let rng = Sim.Rng.create ~seed in
        for _ = 1 to steps do
          let pfn = Sim.Rng.int rng frames in
          match Sim.Rng.int rng 3 with
          | 0 -> Xen.P2m.set p pfn ~mfn:(Sim.Rng.int rng 1024) ~writable:true
          | 1 -> ignore (Xen.P2m.invalidate p pfn)
          | _ -> ignore (Xen.P2m.splinter p pfn)
        done;
        (Xen.Pt.replica_updates pt, Xen.Pt.replica_invalidations pt)
      in
      let u1, i1 = run 1 in
      let un, inv = run mirrors in
      un = mirrors * u1 && inv = mirrors * i1)

let suite =
  [
    ( "xen.costs",
      [
        Alcotest.test_case "dma calibration" `Quick test_costs_dma_calibration;
        Alcotest.test_case "overhead amortises" `Quick test_costs_overhead_amortises;
        Alcotest.test_case "ipi costs" `Quick test_costs_ipi;
      ] );
    ( "xen.p2m",
      [
        Alcotest.test_case "basic" `Quick test_p2m_basic;
        Alcotest.test_case "invalidate" `Quick test_p2m_invalidate;
        Alcotest.test_case "write protect" `Quick test_p2m_write_protect;
        Alcotest.test_case "remap keeps count" `Quick test_p2m_remap_keeps_count;
        Alcotest.test_case "iteration" `Quick test_p2m_iteration;
        Alcotest.test_case "bounds" `Quick test_p2m_bounds;
        Alcotest.test_case "superpage map/lookup" `Quick test_p2m_superpage_map_lookup;
        Alcotest.test_case "splinter preserves lookups" `Quick
          test_p2m_superpage_splinter_preserves_lookups;
        Alcotest.test_case "mutation splinters" `Quick test_p2m_superpage_mutation_splinters;
        Alcotest.test_case "promote" `Quick test_p2m_superpage_promote;
        Alcotest.test_case "map_superpage errors" `Quick test_p2m_superpage_map_errors;
        QCheck_alcotest.to_alcotest prop_p2m_set_get_roundtrip;
        QCheck_alcotest.to_alcotest prop_p2m_superpage_interleavings;
      ] );
    ( "xen.p2m.batch",
      [
        QCheck_alcotest.to_alcotest prop_p2m_invalidate_batch_equals_per_page;
        QCheck_alcotest.to_alcotest prop_p2m_invalidate_range_equals_batch;
        QCheck_alcotest.to_alcotest prop_p2m_migrate_batch_equals_per_page;
        QCheck_alcotest.to_alcotest prop_p2m_batched_replay_equals_per_page;
        QCheck_alcotest.to_alcotest prop_batch_costs_bounded;
      ] );
    ( "xen.pt",
      [
        Alcotest.test_case "level placement" `Quick test_pt_level_node;
        Alcotest.test_case "counter classification" `Quick test_pt_counters_classify_updates;
        QCheck_alcotest.to_alcotest prop_pt_replicas_track_primary;
        QCheck_alcotest.to_alcotest prop_pt_counters_scale_with_mirrors;
      ] );
    ( "xen.system",
      [
        Alcotest.test_case "domain builder packs" `Quick test_system_domain_builder_packs;
        Alcotest.test_case "memory-bound homes" `Quick test_system_domain_memory_bound;
        Alcotest.test_case "second domain avoids first" `Quick test_system_second_domain_avoids_first;
        Alcotest.test_case "consolidation shares" `Quick test_system_consolidation_shares;
        Alcotest.test_case "explicit homes + destroy" `Quick test_system_explicit_homes_and_destroy;
        Alcotest.test_case "fault dispatch" `Quick test_domain_fault_dispatch;
      ] );
    ( "xen.ipi",
      [
        Alcotest.test_case "totals" `Quick test_ipi_totals;
        Alcotest.test_case "stage sums" `Quick test_ipi_stage_sums;
      ] );
    ( "xen.pci",
      [
        Alcotest.test_case "bus granularity" `Quick test_pci_bus_granularity;
        Alcotest.test_case "amd48 buses" `Quick test_pci_amd48_buses;
      ] );
    ( "xen.hypercall",
      [
        Alcotest.test_case "numbers" `Quick test_hypercall_numbers;
        Alcotest.test_case "accounting" `Quick test_hypercall_accounting;
        Alcotest.test_case "manager records" `Quick test_hypercall_charged_once_via_manager;
      ] );
    ( "xen.balloon",
      [
        Alcotest.test_case "balloon vs page-ops queue" `Quick test_balloon_vs_page_ops_queue;
      ] );
    ( "xen.dma",
      [
        Alcotest.test_case "three paths" `Quick test_dma_paths;
        Alcotest.test_case "iommu fault on invalid entry" `Quick test_dma_iommu_fault_on_invalid_entry;
        Alcotest.test_case "requires bus" `Quick test_dma_requires_bus;
      ] );
  ]
