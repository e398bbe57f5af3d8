(* Host-time benchmark of the simulator.  One invocation runs one
   workload's cells through Engine.Runner.run, one cell at a time on
   one domain, timing every call and checking every result.

     main.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]

   --trace 0 repeats whole passes over the cells while another pass
   still fits in --seconds (always at least one) and reports the
   end-to-end metrics in reference time (see Measure.calibration_ms).
   --trace 1 runs one untraced pass, one boot-only pass and one
   reverse-order pass with Obs.Profile and Obs.Metrics on, and reports
   the per-layer split in host time.  Human-readable lines come first;
   the last stdout line is one JSON object. *)

open Benchmark

let now = Unix.gettimeofday

let usage_error msg =
  Printf.eprintf
    "benchmark: %s\n\
     usage: main.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n\
     %s\n"
    msg Cells.usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go ((w, seed, seconds, trace) as acc) = function
    | [] -> acc
    | "--workload" :: v :: rest -> go (Some v, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> go (w, int_arg "--seed" v, seconds, trace) rest
    | "--seconds" :: v :: rest -> (
        match int_arg "--seconds" v with
        | n when n >= 1 -> go (w, seed, n, trace) rest
        | _ -> usage_error "--seconds must be at least 1")
    | "--trace" :: ("0" | "1" as v) :: rest -> go (w, seed, seconds, v = "1") rest
    | flag :: _ -> usage_error (Printf.sprintf "unexpected argument %S" flag)
  in
  match go (None, 42, 10, false) (List.tl (Array.to_list argv)) with
  | None, _, _, _ -> usage_error "missing --workload"
  | Some workload, seed, seconds, trace ->
      if not (List.mem workload Cells.workloads) then
        usage_error (Printf.sprintf "unknown workload %S" workload);
      { workload; seed; seconds = float_of_int seconds; trace }

(* One timed Runner.run.  An exception fails the cell, not the pass. *)
type run = { ms : float; outcome : (Engine.Result.t, string) result }

let run_config config =
  let t0 = now () in
  let outcome =
    match Engine.Runner.run config with
    | r -> Ok r
    | exception e -> Error ("raised " ^ Printexc.to_string e)
  in
  { ms = (now () -. t0) *. 1e3; outcome }

(* One pass over the cells; [reverse] dispatches them last to first but
   returns the runs in cell order.  A full major collection after every
   cell, outside its timer, frees the finished run's simulated machine
   before the next one allocates its own: no cell pays for collecting
   its predecessor, and the peak RSS is that of the largest single run,
   not an accident of where the collector's cycles fell.  [after k]
   runs after the [k]-th dispatched cell's collection. *)
let pass ?(reverse = false) ?(prepare = Fun.id) ?(after = ignore) cells =
  let n = Array.length cells in
  let runs = Array.make n { ms = 0.0; outcome = Error "not run" } in
  let t0 = now () in
  for k = 0 to n - 1 do
    let i = if reverse then n - 1 - k else k in
    runs.(i) <- run_config (prepare cells.(i).Cells.config);
    Gc.full_major ();
    after k
  done;
  (now () -. t0, runs)

(* A forward pass with the calibration loop before the first cell and
   after every cell.  Also returns each cell's time in reference
   milliseconds. *)
let calibrated_pass cells =
  let cal = Array.make (Array.length cells + 1) 0.0 in
  Gc.full_major ();
  cal.(0) <- Measure.calibration_ms ();
  let wall, runs = pass ~after:(fun k -> cal.(k + 1) <- Measure.calibration_ms ()) cells in
  (wall, runs, Array.mapi (fun i (r : run) -> r.ms *. Measure.host_factor cal i) runs)

let boot_only (cfg : Engine.Config.t) = { cfg with Engine.Config.max_epochs = 0 }

(* Per-cell verdicts: the run's own invariants, then agreement with the
   reference pass's marshalled result (same seed, same config, so any
   difference is nondeterminism). *)
let verdicts ?reference cells runs =
  Array.mapi
    (fun i (r : run) ->
      let max_epochs = cells.(i).Cells.config.Engine.Config.max_epochs in
      Result.bind r.outcome (fun res ->
          Result.bind (Measure.check ~max_epochs res) (fun () ->
              match reference with
              | None -> Ok ()
              | Some (refs : run array) -> (
                  match refs.(i).outcome with
                  | Ok r0 when Measure.encode r0 = Measure.encode res -> Ok ()
                  | _ -> Error "result differs from the reference pass"))))
    runs

let count_failures cells vs =
  Array.iteri
    (fun i v ->
      match v with
      | Ok () -> ()
      | Error e -> Printf.eprintf "benchmark: FAILED %s: %s\n%!" cells.(i).Cells.label e)
    vs;
  Array.fold_left (fun n v -> if Result.is_ok v then n else n + 1) 0 vs

(* MD5 over the marshalled results in cell order: a change that claims
   only speed must leave it unchanged. *)
let result_digest runs =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (r : run) ->
      match r.outcome with
      | Ok res -> Buffer.add_string b (Measure.encode res)
      | Error e -> Buffer.add_string b e)
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sum_results f runs =
  Array.fold_left
    (fun acc (r : run) -> match r.outcome with Ok res -> acc +. f res | Error _ -> acc)
    0.0 runs

let vm_epochs =
  sum_results (fun r ->
      float_of_int (r.Engine.Result.epochs * List.length r.Engine.Result.vms))

let sum = Array.fold_left ( +. ) 0.0
let raw_ms runs = Array.map (fun (r : run) -> r.ms) runs
let sum_ms runs = sum (raw_ms runs)

(* Output: one "name value unit" line per metric, then the JSON. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-26s %16.6f %s\n" name v unit) metrics;
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.12g" v else "null")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Set-up is building the workload's configs plus one boot-only run of
   its first cell, which grows the heap and faults in the engine's code
   before anything is timed.  Repeated, each time followed by one
   calibration; the median in reference time is reported, and the
   median host time is returned for the log. *)
let setup_repeats = 5

let setup a =
  let once () =
    let t0 = now () in
    let cells = Array.of_list (Option.get (Cells.build ~seed:a.seed a.workload)) in
    ignore (run_config (boot_only cells.(0).Cells.config));
    let host_s = now () -. t0 in
    Gc.full_major ();
    (host_s, host_s *. Measure.reference_ms /. Measure.calibration_ms (), cells)
  in
  let runs = Array.init setup_repeats (fun _ -> once ()) in
  let _, _, cells = runs.(0) in
  ( Measure.median (Array.map (fun (_, s, _) -> s) runs),
    Measure.median (Array.map (fun (h, _, _) -> h) runs),
    cells )

let end_to_end a ~setup_s ~setup_host_s cells =
  let deadline = now () +. a.seconds in
  let rec loop acc =
    let ((wall, _, _) as p) = calibrated_pass cells in
    if now () +. wall > deadline then List.rev (p :: acc) else loop (p :: acc)
  in
  let passes = loop [] in
  let _, first, _ = List.hd passes in
  let failed =
    List.fold_left
      (fun n (_, runs, _) -> n + count_failures cells (verdicts ~reference:first cells runs))
      0 passes
  in
  let ms = Array.concat (List.map (fun (_, _, ms) -> ms) passes) in
  let host_ms = Array.concat (List.map (fun (_, runs, _) -> raw_ms runs) passes) in
  let median_pass f = Measure.median (Array.of_list (List.map f passes)) in
  let pass_s = median_pass (fun (_, _, ms) -> sum ms /. 1e3) in
  Printf.printf "workload %s seed %d: %d cells x %d passes, %d samples beyond p90\n" a.workload
    a.seed (Array.length cells) (List.length passes)
    (Measure.beyond 90.0 (Array.length ms));
  Printf.printf
    "host time: pass %.3f s (%.3f s with collections and calibration), run p50 %.3f ms, p90 \
     %.3f ms, set-up %.4f s; %.3fx reference\n"
    (median_pass (fun (_, runs, _) -> sum_ms runs /. 1e3))
    (median_pass (fun (wall, _, _) -> wall))
    (Measure.percentile 50.0 host_ms) (Measure.percentile 90.0 host_ms) setup_host_s
    (sum host_ms /. sum ms);
  Printf.printf "result_digest %s\n" (result_digest first);
  emit ~correct:(failed = 0) ~attempted:(Array.length ms) ~failed
    [
      ("pass_s", pass_s, "s");
      ("vm_epochs_per_s", vm_epochs first /. pass_s, "1/s");
      ("run_p50_ms", Measure.percentile 50.0 ms, "ms");
      ("run_p90_ms", Measure.percentile 90.0 ms, "ms");
      ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
      ("setup_s", setup_s, "s");
    ]

(* Profile phases are looked up by name, so phases added to the
   profiler later leave this file compiling. *)
let phase totals name =
  match List.find_opt (fun (n, _, _) -> n = name) totals with
  | Some (_, calls, ns) -> (float_of_int calls, float_of_int ns /. 1e6)
  | None -> (0.0, 0.0)

let counter name = float_of_int (Option.value ~default:0 (Obs.Metrics.counter_value name))

let histogram_mean name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Histogram_value h) -> h.Obs.Metrics.mean
  | _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The spans the runner opens directly in its epoch loop.  p2m.batch
   and pv.flush run inside them (or inside boot), so they are reported
   but not subtracted again. *)
let top_level =
  [
    "kernel.compute";
    "kernel.throughput";
    "kernel.latency";
    "reduce";
    "carrefour.feed";
    "manager.epoch_tick";
    "ff.replay";
  ]

let per_layer a cells =
  let wall, plain = pass cells in
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  let _, boot = pass ~prepare:boot_only cells in
  let boot_totals = Obs.Profile.totals () in
  Obs.Profile.reset ();
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let traced_wall, traced = pass ~reverse:true cells in
  Obs.Metrics.set_enabled false;
  Obs.Profile.set_enabled false;
  let totals = Obs.Profile.totals () in
  let untraced_ok = verdicts cells plain and traced_ok = verdicts ~reference:plain cells traced in
  let failed =
    count_failures cells
      (Array.init (Array.length cells) (fun i ->
           let boot_ok = Result.map ignore boot.(i).outcome in
           Result.bind untraced_ok.(i) (fun () ->
               Result.bind traced_ok.(i) (fun () ->
                   Result.map_error (fun e -> "boot-only run " ^ e) boot_ok))))
  in
  let run_ms = sum_ms plain and boot_ms = sum_ms boot and traced_ms = sum_ms traced in
  let epochs = sum_results (fun r -> float_of_int r.Engine.Result.epochs) plain in
  let replayed = sum_results (fun r -> float_of_int r.Engine.Result.replayed_epochs) plain in
  let ms name = snd (phase totals name) and calls name = fst (phase totals name) in
  let top = List.fold_left (fun acc p -> acc +. ms p) 0.0 top_level in
  let actions = counter "policies.carrefour.actions" in
  let dedup = counter "guest.pv.dedup_hits" in
  Printf.printf "workload %s seed %d: %d cells, traced pass in reverse order\n" a.workload a.seed
    (Array.length cells);
  Printf.printf "result_digest %s\n" (result_digest plain);
  emit ~correct:(failed = 0) ~attempted:(Array.length cells) ~failed
    [
      ("runner.run_ms", traced_ms, "ms");
      ("runner.boot_ms", boot_ms, "ms");
      ("runner.boot_frac", ratio boot_ms run_ms, "ratio");
      ("runner.us_per_vm_epoch", 1e3 *. ratio run_ms (vm_epochs plain), "us");
      ("kernel.compute_ms", ms "kernel.compute", "ms");
      ("kernel.throughput_ms", ms "kernel.throughput", "ms");
      ("kernel.latency_ms", ms "kernel.latency", "ms");
      ("runner.reduce_ms", ms "reduce", "ms");
      ("runner.other_ms", traced_ms -. boot_ms -. top, "ms");
      ("ff.replay_ms", ms "ff.replay", "ms");
      ("ff.replayed_frac", ratio replayed epochs, "ratio");
      ("carrefour.feed_ms", ms "carrefour.feed", "ms");
      ("carrefour.feed_calls", calls "carrefour.feed", "count");
      ("carrefour.actions", actions, "count");
      ("carrefour.failed_frac", ratio (counter "policies.carrefour.failed") actions, "ratio");
      ("manager.tick_ms", ms "manager.epoch_tick", "ms");
      ("manager.tick_calls", calls "manager.epoch_tick", "count");
      ("manager.migrate_retries", counter "policies.migrate.retries", "count");
      ("p2m.batch_ms", ms "p2m.batch", "ms");
      ("p2m.batch_boot_ms", snd (phase boot_totals "p2m.batch"), "ms");
      ("p2m.batches", counter "xen.p2m.batches", "count");
      ("p2m.frames_per_batch", histogram_mean "xen.p2m.batch_frames", "count");
      ("pt.replica_updates", counter "engine.pt.replica_updates", "count");
      ("pv.flush_ms", ms "pv.flush", "ms");
      ("pv.flushes", counter "guest.pv.flushes", "count");
      ( "pv.dedup_frac",
        ratio dedup (dedup +. counter "guest.pv.ops_sent" +. counter "guest.pv.lost_ops"),
        "ratio" );
      ("faults.injected", counter "engine.faults_injected", "count");
      ("obs.trace_overhead_frac", ratio traced_wall wall -. 1.0, "ratio");
    ]

let () =
  let a = parse_args Sys.argv in
  let setup_s, setup_host_s, cells = setup a in
  if a.trace then per_layer a cells else end_to_end a ~setup_s ~setup_host_s cells
