(* Task dispatch is a single atomic cursor over the task array: a
   worker claims the next index with [Atomic.fetch_and_add] until the
   cursor passes the end.  Compared to the earlier mutex/condvar deque
   this allocates nothing per task and costs one uncontended RMW per
   claim, which keeps the pool viable for sub-millisecond tasks (see
   the [pool dispatch] micro benchmark). *)

(* ------------------------------------------------------------------ *)
(* Worker count resolution                                             *)
(* ------------------------------------------------------------------ *)

let hardware_parallelism = Domain.recommended_domain_count

let available_jobs () =
  match Sys.getenv_opt "XEN_NUMA_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_override = Atomic.make None

let set_default_jobs n = Atomic.set default_override (Some (max 1 n))

let default_jobs () =
  match Atomic.get default_override with Some n -> n | None -> available_jobs ()

(* Domains above the hardware parallelism cannot run concurrently —
   they time-slice the same cores while still paying the stop-the-world
   minor-GC synchronisation of every live domain, which on a saturated
   host makes the grid several times *slower* than sequential.  Spawn
   counts are therefore capped at [recommended_domain_count]; [~jobs]
   beyond that only expresses intent. *)
let effective_workers ~jobs ~tasks =
  max 1 (min jobs (min tasks (hardware_parallelism ())))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_all ?jobs tasks =
  let n = Array.length tasks in
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  (* Wall-clock instrumentation only runs while metrics collection is
     on (the flag is captured once per call); the values are real-time
     measurements and never feed back into the simulation. *)
  let metrics_on = Obs.Metrics.enabled () in
  let t0 = if metrics_on then Unix.gettimeofday () else 0.0 in
  let run_task i =
    if not metrics_on then tasks.(i) ()
    else begin
      let start = Unix.gettimeofday () in
      Obs.Metrics.observe "pool.task_queue_wait_s" (start -. t0);
      let v = tasks.(i) () in
      Obs.Metrics.incr "pool.tasks";
      Obs.Metrics.observe "pool.task_wall_s" (Unix.gettimeofday () -. start);
      v
    end
  in
  let workers = effective_workers ~jobs ~tasks:n in
  if n = 0 then [||]
  else if workers = 1 || n = 1 then begin
    let results = Array.init n run_task in
    if metrics_on then begin
      Obs.Metrics.gauge "pool.jobs" 1.0;
      Obs.Metrics.observe "pool.worker_utilisation" 1.0
    end;
    results
  end
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    let cursor = Atomic.make 0 in
    let observe_utilisation busy =
      if metrics_on then begin
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed > 0.0 then
          Obs.Metrics.observe "pool.worker_utilisation"
            (Float.min 1.0 (busy /. elapsed))
      end
    in
    let rec worker busy =
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= n then observe_utilisation busy
      else begin
        let start = if metrics_on then Unix.gettimeofday () else 0.0 in
        (* Disjoint indices: no two workers ever touch the same slot. *)
        (try results.(i) <- Some (run_task i)
         with exn -> failures.(i) <- Some (exn, Printexc.get_raw_backtrace ()));
        let busy = if metrics_on then busy +. (Unix.gettimeofday () -. start) else busy in
        worker busy
      end
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn (fun () -> worker 0.0)) in
    worker 0.0;
    Array.iter Domain.join spawned;
    if metrics_on then Obs.Metrics.gauge "pool.jobs" (float_of_int workers);
    Array.iter
      (function
        | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
        | None -> ())
      failures;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_array ?jobs f a = run_all ?jobs (Array.map (fun x () -> f x) a)

let map_list ?jobs f l = Array.to_list (map_array ?jobs f (Array.of_list l))
