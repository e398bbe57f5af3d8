(* Wall-clock phase profiler for the runner's hot paths.  A fixed
   phase taxonomy keeps the accounting allocation-free: one atomic
   nanosecond accumulator and one atomic call counter per phase,
   shared by every Pool worker (fetch_and_add is domain-safe).

   The profiler writes to the metrics registry only (via
   [commit_metrics]) and never into traces, so trace byte-equality
   across --jobs is untouched.  When disabled, [span]
   is a single atomic read before the thunk runs — the same contract
   as the Metrics front doors. *)

type phase =
  | Kernel_compute
  | Kernel_throughput
  | Kernel_latency
  | Reduce
  | Carrefour_feed
  | Carrefour_decay
  | Carrefour_decide
  | P2m_batch
  | Pv_flush
  | Epoch_tick
  | Manager_promote_scan
  | Manager_reconcile
  | Manager_release
  | Ff_replay
  | Churn
  | Guest_refresh
  | Outcome

let phases =
  [
    Kernel_compute;
    Kernel_throughput;
    Kernel_latency;
    Reduce;
    Carrefour_feed;
    Carrefour_decay;
    Carrefour_decide;
    P2m_batch;
    Pv_flush;
    Epoch_tick;
    Manager_promote_scan;
    Manager_reconcile;
    Manager_release;
    Ff_replay;
    Churn;
    Guest_refresh;
    Outcome;
  ]

let phase_index = function
  | Kernel_compute -> 0
  | Kernel_throughput -> 1
  | Kernel_latency -> 2
  | Reduce -> 3
  | Carrefour_feed -> 4
  | Carrefour_decay -> 5
  | Carrefour_decide -> 6
  | P2m_batch -> 7
  | Pv_flush -> 8
  | Epoch_tick -> 9
  | Manager_promote_scan -> 10
  | Manager_reconcile -> 11
  | Manager_release -> 12
  | Ff_replay -> 13
  | Churn -> 14
  | Guest_refresh -> 15
  | Outcome -> 16

let phase_name = function
  | Kernel_compute -> "kernel.compute"
  | Kernel_throughput -> "kernel.throughput"
  | Kernel_latency -> "kernel.latency"
  | Reduce -> "reduce"
  | Carrefour_feed -> "carrefour.feed"
  | Carrefour_decay -> "carrefour.decay"
  | Carrefour_decide -> "carrefour.decide"
  | P2m_batch -> "p2m.batch"
  | Pv_flush -> "pv.flush"
  | Epoch_tick -> "manager.epoch_tick"
  | Manager_promote_scan -> "manager.promote_scan"
  | Manager_reconcile -> "manager.reconcile"
  | Manager_release -> "manager.release"
  | Ff_replay -> "ff.replay"
  | Churn -> "churn"
  | Guest_refresh -> "guest.refresh"
  | Outcome -> "outcome"

let nphases = List.length phases

let ns = Array.init nphases (fun _ -> Atomic.make 0)
let calls = Array.init nphases (fun _ -> Atomic.make 0)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let reset () =
  for i = 0 to nphases - 1 do
    Atomic.set ns.(i) 0;
    Atomic.set calls.(i) 0
  done

(* Spans are inclusive: a phase that calls into another profiled phase
   (epoch_tick over a pv flush, say) accounts the child's time in both
   rows.  The report is attribution, not a partition of wall clock. *)
let span phase f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        let i = phase_index phase in
        ignore (Atomic.fetch_and_add ns.(i) (int_of_float (dt *. 1e9)));
        ignore (Atomic.fetch_and_add calls.(i) 1))
      f
  end

let totals () =
  List.map
    (fun p ->
      let i = phase_index p in
      (phase_name p, Atomic.get calls.(i), Atomic.get ns.(i)))
    phases

(* Mirror the accumulators into the metrics registry (no-op while
   metrics are disabled), so `xen_numa_sim --metrics` renders them
   alongside the counters. *)
let commit_metrics () =
  List.iter
    (fun (name, c, t) ->
      if c > 0 then begin
        Metrics.incr ~by:c (Printf.sprintf "profile.%s.calls" name);
        Metrics.incr ~by:t (Printf.sprintf "profile.%s.ns" name)
      end)
    (totals ())

let render () =
  let rows = List.filter (fun (_, c, _) -> c > 0) (totals ()) in
  let total_ns = List.fold_left (fun acc (_, _, t) -> acc + t) 0 rows in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %12s %12s %10s %7s\n" "phase" "calls" "total ms" "mean us" "share");
  List.iter
    (fun (name, c, t) ->
      let ms = float_of_int t /. 1e6 in
      let mean_us = if c = 0 then 0.0 else float_of_int t /. float_of_int c /. 1e3 in
      let share = if total_ns = 0 then 0.0 else float_of_int t /. float_of_int total_ns in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %12d %12.3f %10.3f %6.1f%%\n" name c ms mean_us (100.0 *. share)))
    rows;
  if rows = [] then Buffer.add_string buf "(no profiled spans recorded)\n";
  Buffer.contents buf
