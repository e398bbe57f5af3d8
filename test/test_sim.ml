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
  let z = Sim.Rng.zipf_sampler ~n ~s:1.0 in
  for _ = 1 to draws do
    let v = Sim.Rng.zipf rng z in
    if v < 0 || v >= n then Alcotest.failf "zipf out of bounds: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  (* Under s = 1 the frequency of rank 0 over rank 9 should be ~10. *)
  let ratio = float_of_int counts.(0) /. float_of_int counts.(9) in
  check_close "zipf skew head/rank9" 10.0 ratio 2.0;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(1))

let test_rng_zipf_single () =
  let rng = Sim.Rng.create ~seed:10 in
  Alcotest.(check int) "n=1 always 0" 0 (Sim.Rng.zipf rng (Sim.Rng.zipf_sampler ~n:1 ~s:0.9));
  Alcotest.(check int64) "n=1 draws nothing"
    (Sim.Rng.bits64 (Sim.Rng.create ~seed:10))
    (Sim.Rng.bits64 rng)

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
      let v = Sim.Rng.zipf rng (Sim.Rng.zipf_sampler ~n ~s) in
      v >= 0 && v < n)

(* The Zipf draw as it was computed before the sampler existed: every
   constant recomputed per call.  [unit_float] is the generator's
   53-bit mapping, restated over [bits64]. *)
let zipf_per_call t ~n ~s =
  let unit_float t =
    float_of_int (Int64.to_int (Int64.shift_right_logical (Sim.Rng.bits64 t) 11)) *. 0x1p-53
  in
  if n = 1 then 0
  else begin
    let nf = float_of_int n in
    let h x = if Float.abs (1.0 -. s) < 1e-9 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x =
      if Float.abs (1.0 -. s) < 1e-9 then exp x else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s))
    in
    let hx0 = h 0.5 -. 1.0 in
    let hn = h (nf +. 0.5) in
    let rec draw () =
      let u = hx0 +. (unit_float t *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = Float.max 1.0 (Float.min nf k) in
      if k -. x <= 0.5 || u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k - 1 else draw ()
    in
    draw ()
  end

(* The sampler built once gives the per-call formula's draws and leaves
   the generator where it left it, bit for bit: at s = 1 (the log law),
   within 1e-9 of it, and away from it. *)
let prop_rng_zipf_sampler_matches_per_call =
  QCheck.Test.make ~name:"rng zipf sampler = per-call formula (draws and state)" ~count:300
    QCheck.(
      triple (int_range 1 100_000) int
        (oneof [ always 1.0; always (1.0 +. 5e-10); float_range 0.05 3.0 ]))
    (fun (n, seed, s) ->
      let z = Sim.Rng.zipf_sampler ~n ~s in
      let a = Sim.Rng.create ~seed and b = Sim.Rng.create ~seed in
      let same = ref true in
      for _ = 1 to 64 do
        same := !same && Sim.Rng.zipf a z = zipf_per_call b ~n ~s
      done;
      !same && Sim.Rng.bits64 a = Sim.Rng.bits64 b)

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

(* The clock stands at the time [next] last returned: scheduling at
   that time is accepted, and scheduling before it is the past. *)
let test_eventq_clock_advances () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.schedule q ~at:0.0 "now";
  Sim.Eventq.schedule q ~at:5.0 "later";
  let pop () = match Sim.Eventq.next q with Some (t, x) -> (t, x) | None -> (Float.nan, "!") in
  Alcotest.(check (pair (float 0.0) string)) "clock starts at 0" (0.0, "now") (pop ());
  Alcotest.(check (pair (float 0.0) string)) "clock advanced" (5.0, "later") (pop ());
  Sim.Eventq.schedule q ~at:5.0 "same instant";
  Alcotest.(check (pair (float 0.0) string)) "present accepted" (5.0, "same instant") (pop ());
  match Sim.Eventq.schedule q ~at:4.0 "past" with
  | exception Assert_failure _ -> ()
  | () -> Alcotest.fail "scheduled before the clock"

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
        qcheck prop_rng_zipf_sampler_matches_per_call;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "relative stddev" `Quick test_stats_relative_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        qcheck prop_stats_relative_stddev_scale_invariant;
        qcheck prop_stats_percentile_monotone;
      ] );
    ( "sim.eventq",
      [
        Alcotest.test_case "order" `Quick test_eventq_order;
        Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
        Alcotest.test_case "clock advances" `Quick test_eventq_clock_advances;
        qcheck prop_eventq_drains_sorted;
      ] );
    ( "sim.units",
      [
        Alcotest.test_case "conversions" `Quick test_units;
        Alcotest.test_case "pretty printing" `Quick test_units_pp;
      ] );
  ]
