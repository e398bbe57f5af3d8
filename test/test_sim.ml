(* Tests for the sim library: rng, stats, eventq, units. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close msg expected actual tolerance =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

(* ------------------------------- rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_differs () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  Alcotest.(check bool) "different" true (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_rng_split_independent () =
  let root = Sim.Rng.create ~seed:5 in
  let a = Sim.Rng.split root in
  let b = Sim.Rng.split root in
  Alcotest.(check bool) "split streams differ" true (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v
  done

let test_rng_float_bounds () =
  let rng = Sim.Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %g" v
  done

let test_rng_bernoulli_mean () =
  let rng = Sim.Rng.create ~seed:6 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close "bernoulli mean" 0.3 (float_of_int !hits /. float_of_int n) 0.01

let test_rng_zipf_bounds_and_skew () =
  let rng = Sim.Rng.create ~seed:9 in
  let n = 1000 in
  let counts = Array.make n 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let v = Sim.Rng.zipf rng ~n ~s:1.0 in
    if v < 0 || v >= n then Alcotest.failf "zipf out of bounds: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  (* Under s = 1 the frequency of rank 0 over rank 9 should be ~10. *)
  let ratio = float_of_int counts.(0) /. float_of_int counts.(9) in
  check_close "zipf skew head/rank9" 10.0 ratio 2.0;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(1))

let test_rng_zipf_single () =
  let rng = Sim.Rng.create ~seed:10 in
  Alcotest.(check int) "n=1 always 0" 0 (Sim.Rng.zipf rng ~n:1 ~s:0.9)

(* qcheck: Rng.int is always within bounds for arbitrary bounds/seeds *)
let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int int)
    (fun (bound, seed) ->
      QCheck.assume (bound > 0);
      let rng = Sim.Rng.create ~seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_zipf_in_bounds =
  QCheck.Test.make ~name:"rng zipf within bounds" ~count:500
    QCheck.(triple small_int int (float_range 0.1 2.0))
    (fun (n, seed, s) ->
      QCheck.assume (n > 0);
      let rng = Sim.Rng.create ~seed in
      let v = Sim.Rng.zipf rng ~n ~s in
      v >= 0 && v < n)

(* ------------------------------ stats ----------------------------- *)

let test_stats_mean_stddev () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Sim.Stats.mean a);
  (* Population standard deviation 2 over the mean 5. *)
  check_float "stddev / mean" 0.4 (Sim.Stats.relative_stddev a)

let test_stats_relative_stddev () =
  check_float "uniform => 0" 0.0 (Sim.Stats.relative_stddev [| 3.0; 3.0; 3.0 |]);
  check_float "zero mean => 0" 0.0 (Sim.Stats.relative_stddev [| 0.0; 0.0 |]);
  (* One node with everything out of 8: the paper's worst imbalance. *)
  let concentrated = Array.make 8 0.0 in
  concentrated.(0) <- 8.0;
  check_close "concentrated" (sqrt 7.0) (Sim.Stats.relative_stddev concentrated) 1e-9

let test_stats_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Sim.Stats.percentile a 0.0);
  check_float "p50" 3.0 (Sim.Stats.percentile a 50.0);
  check_float "p100" 5.0 (Sim.Stats.percentile a 100.0);
  check_float "p25" 2.0 (Sim.Stats.percentile a 25.0)

let prop_stats_relative_stddev_scale_invariant =
  QCheck.Test.make ~name:"relative stddev is scale invariant" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 2 20) (float_range 0.1 100.0)) (float_range 0.5 10.0))
    (fun (xs, k) ->
      let a = Array.of_list xs in
      let scaled = Array.map (fun x -> x *. k) a in
      Float.abs (Sim.Stats.relative_stddev a -. Sim.Stats.relative_stddev scaled) < 1e-9)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range 0.0 100.0))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Sim.Stats.percentile a lo <= Sim.Stats.percentile a hi +. 1e-9)

(* ------------------------------ eventq ---------------------------- *)

let test_eventq_order () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.schedule q ~at:3.0 "c";
  Sim.Eventq.schedule q ~at:1.0 "a";
  Sim.Eventq.schedule q ~at:2.0 "b";
  let pop () = match Sim.Eventq.next q with Some (_, x) -> x | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_eventq_fifo_ties () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.schedule q ~at:1.0 "first";
  Sim.Eventq.schedule q ~at:1.0 "second";
  Sim.Eventq.schedule q ~at:1.0 "third";
  let pop () = match Sim.Eventq.next q with Some (_, x) -> x | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] [ first; second; third ]

let test_eventq_clock_advances () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.schedule_after q ~delay:5.0 ();
  check_float "clock starts at 0" 0.0 (Sim.Eventq.now q);
  ignore (Sim.Eventq.next q);
  check_float "clock advanced" 5.0 (Sim.Eventq.now q)

let test_eventq_run_until () =
  let q = Sim.Eventq.create () in
  for i = 1 to 10 do
    Sim.Eventq.schedule q ~at:(float_of_int i) i
  done;
  let seen = ref [] in
  Sim.Eventq.run q ~handler:(fun _ i -> seen := i :: !seen) ~until:5.5;
  Alcotest.(check (list int)) "only first five" [ 5; 4; 3; 2; 1 ] !seen;
  Alcotest.(check int) "rest remain" 5 (Sim.Eventq.size q)

let test_eventq_handler_reschedule () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.schedule q ~at:1.0 0;
  let count = ref 0 in
  Sim.Eventq.run q
    ~handler:(fun _ gen ->
      incr count;
      if gen < 4 then Sim.Eventq.schedule_after q ~delay:1.0 (gen + 1))
    ~until:100.0;
  Alcotest.(check int) "cascade of 5" 5 !count;
  Alcotest.(check bool) "empty" true (Sim.Eventq.is_empty q)

let prop_eventq_drains_sorted =
  QCheck.Test.make ~name:"eventq drains in timestamp order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0.0 1000.0))
    (fun times ->
      let q = Sim.Eventq.create () in
      List.iter (fun t -> Sim.Eventq.schedule q ~at:t t) times;
      let rec drain acc =
        match Sim.Eventq.next q with Some (_, t) -> drain (t :: acc) | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare times)

(* ------------------------------ units ----------------------------- *)

let test_units () =
  Alcotest.(check int) "kib" 2048 (Sim.Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Sim.Units.mib 1);
  Alcotest.(check int) "gib" (1024 * 1024 * 1024) (Sim.Units.gib 1)

let test_units_pp () =
  Alcotest.(check string) "bytes" "16.0 GiB" (Format.asprintf "%a" Sim.Units.pp_bytes (Sim.Units.gib 16));
  Alcotest.(check string) "us" "307.0 us" (Format.asprintf "%a" Sim.Units.pp_seconds 307e-6)

(* ------------------------------ topk ------------------------------- *)

let test_topk_selects_best () =
  let h = Sim.Stats.Topk.create 3 in
  List.iter (fun (k, id) -> Sim.Stats.Topk.add h ~key:k id)
    [ (5.0, 10); (1.0, 11); (9.0, 12); (3.0, 13); (7.0, 14) ];
  Alcotest.(check int) "size capped" 3 (Sim.Stats.Topk.size h);
  Alcotest.(check bool) "heap shape" true (Sim.Stats.Topk.heap_invariant h);
  Alcotest.(check (array (pair (float 0.0) int))) "best three, descending"
    [| (9.0, 12); (7.0, 14); (5.0, 10) |]
    (Sim.Stats.Topk.sorted_desc h)

let test_topk_ties_toward_smaller_id () =
  let h = Sim.Stats.Topk.create 2 in
  List.iter (fun id -> Sim.Stats.Topk.add h ~key:4.0 id) [ 30; 10; 20 ];
  Alcotest.(check (array (pair (float 0.0) int))) "smaller ids win equal keys"
    [| (4.0, 10); (4.0, 20) |]
    (Sim.Stats.Topk.sorted_desc h)

let test_topk_empty () =
  let h = Sim.Stats.Topk.create 4 in
  Alcotest.(check int) "empty" 0 (Sim.Stats.Topk.size h);
  Alcotest.(check int) "no results" 0 (Array.length (Sim.Stats.Topk.sorted_desc h));
  Alcotest.check_raises "k = 0 rejected" (Invalid_argument "Topk.create: k must be positive")
    (fun () -> ignore (Sim.Stats.Topk.create 0))

(* Reference model for the differential property: the same "bigger
   key first, ties toward smaller id" order over a plain list. *)
let topk_model_ranks_below (ka, ia) (kb, ib) = ka < kb || (ka = kb && ia > ib)

let topk_model_add k model x =
  if List.length model < k then x :: model
  else begin
    let worst =
      List.fold_left
        (fun acc y -> if topk_model_ranks_below y acc then y else acc)
        (List.hd model) (List.tl model)
    in
    if topk_model_ranks_below worst x then
      x :: (let dropped = ref false in
            List.filter
              (fun y -> if (not !dropped) && y = worst then (dropped := true; false) else true)
              model)
    else model
  end

let prop_topk_matches_model =
  QCheck.Test.make ~name:"topk: differential vs list model under insert" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (pair (int_range 0 40) (int_range 0 15))))
    (fun (k, trace) ->
      let h = Sim.Stats.Topk.create k in
      let model = ref [] in
      List.iter
        (fun (key_i, id) ->
          let key = float_of_int key_i /. 4.0 in
          Sim.Stats.Topk.add h ~key id;
          model := topk_model_add k !model (key, id);
          if not (Sim.Stats.Topk.heap_invariant h) then
            QCheck.Test.fail_report "heap invariant broken mid-trace")
        trace;
      let expected =
        List.sort
          (fun (ka, ia) (kb, ib) ->
            let c = compare kb ka in
            if c <> 0 then c else compare ia ib)
          !model
        |> Array.of_list
      in
      Sim.Stats.Topk.sorted_desc h = expected)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed differs" `Quick test_rng_seed_differs;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
        Alcotest.test_case "zipf bounds and skew" `Quick test_rng_zipf_bounds_and_skew;
        Alcotest.test_case "zipf n=1" `Quick test_rng_zipf_single;
        qcheck prop_rng_int_in_bounds;
        qcheck prop_rng_zipf_in_bounds;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "relative stddev" `Quick test_stats_relative_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        qcheck prop_stats_relative_stddev_scale_invariant;
        qcheck prop_stats_percentile_monotone;
      ] );
    ( "stats.topk",
      [
        Alcotest.test_case "selects the best k" `Quick test_topk_selects_best;
        Alcotest.test_case "ties toward smaller id" `Quick test_topk_ties_toward_smaller_id;
        Alcotest.test_case "empty" `Quick test_topk_empty;
        qcheck prop_topk_matches_model;
      ] );
    ( "sim.eventq",
      [
        Alcotest.test_case "order" `Quick test_eventq_order;
        Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
        Alcotest.test_case "clock advances" `Quick test_eventq_clock_advances;
        Alcotest.test_case "run until" `Quick test_eventq_run_until;
        Alcotest.test_case "handler reschedules" `Quick test_eventq_handler_reschedule;
        qcheck prop_eventq_drains_sorted;
      ] );
    ( "sim.units",
      [
        Alcotest.test_case "conversions" `Quick test_units;
        Alcotest.test_case "pretty printing" `Quick test_units_pp;
      ] );
  ]
