(* Tests for the Engine.Pool domain pool: result ordering, worker
   counts, exception propagation, and the determinism contract the
   parallel experiment sweeps rely on. *)

exception Boom of int

let test_empty () =
  Alcotest.(check int) "no tasks" 0 (Array.length (Engine.Pool.run_all ~jobs:4 [||]))

let test_results_ordered_by_index () =
  (* Tasks deliberately finish out of spawn order (later tasks are
     cheaper); results must still land at their task index. *)
  List.iter
    (fun jobs ->
      let n = 64 in
      let tasks =
        Array.init n (fun i () ->
            let spin = ref 0 in
            for _ = 1 to (n - i) * 1000 do
              incr spin
            done;
            ignore !spin;
            i * i)
      in
      let results = Engine.Pool.run_all ~jobs tasks in
      Alcotest.(check int) "result count" n (Array.length results);
      Array.iteri
        (fun i r -> Alcotest.(check int) (Printf.sprintf "jobs=%d task %d" jobs i) (i * i) r)
        results)
    [ 1; 2; 8 ]

let test_map_preserves_order () =
  let l = [ "a"; "bb"; "ccc"; "dddd" ] in
  Alcotest.(check (list int)) "map_list" [ 1; 2; 3; 4 ]
    (Engine.Pool.map_list ~jobs:3 String.length l)

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 16 (fun i () -> if i = 11 then raise (Boom i) else i)
      in
      match Engine.Pool.run_all ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i -> Alcotest.(check int) "failing index" 11 i)
    [ 1; 4 ]

let test_lowest_failure_wins () =
  (* Several failures: the lowest-indexed one is reported, whatever
     order the workers hit them in. *)
  let tasks = Array.init 16 (fun i () -> if i mod 5 = 3 then raise (Boom i) else i) in
  (match Engine.Pool.run_all ~jobs:8 tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "first failure" 3 i)

let test_jobs_env_and_default () =
  Alcotest.(check bool) "resolved default >= 1" true (Engine.Pool.default_jobs () >= 1);
  Engine.Pool.set_default_jobs 3;
  Alcotest.(check int) "default override" 3 (Engine.Pool.default_jobs ());
  Engine.Pool.set_default_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Engine.Pool.default_jobs ());
  Engine.Pool.set_default_jobs 1

(* ------------------------- determinism ----------------------------- *)

let small_grid () =
  (* A miniature single-VM sweep: 2 workloads x 2 policies, short
     runs.  Per-cell seeds come from the same scheme the real grids
     use (Runs.task_seed), so this asserts exactly the reproducibility
     contract of the parallel sweep. *)
  let cells =
    List.concat_map
      (fun app -> List.map (fun policy -> (app, policy)) Policies.Spec.[ first_touch; round_4k ])
      [ "swaptions"; "bodytrack" ]
  in
  Array.of_list
    (List.map
       (fun (app_name, policy) () ->
         let app =
           match Workloads.Catalogue.find app_name with
           | Some a -> a
           | None -> Alcotest.failf "no app %s" app_name
         in
         let key = { Experiments.Runs.mode = Engine.Config.Linux; app = app_name; policy; mcs = false } in
         let seed = Experiments.Runs.task_seed ~base:42 key in
         let vm = Engine.Config.vm ~policy app in
         let cfg = Engine.Config.make ~seed ~max_epochs:400 ~mode:Engine.Config.Linux [ vm ] in
         let r = Engine.Runner.run cfg in
         let vm_r = Engine.Result.single r in
         (vm_r.Engine.Result.completion, vm_r.Engine.Result.local_fraction, r.Engine.Result.imbalance))
       cells)

let test_parallel_equals_sequential () =
  let seq = Engine.Pool.run_all ~jobs:1 (small_grid ()) in
  let par = Engine.Pool.run_all ~jobs:4 (small_grid ()) in
  Alcotest.(check int) "same cell count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (c1, l1, i1) ->
      let c2, l2, i2 = par.(i) in
      (* bit-identical, not approximately equal *)
      Alcotest.(check bool) (Printf.sprintf "cell %d completion" i) true (c1 = c2);
      Alcotest.(check bool) (Printf.sprintf "cell %d local" i) true (l1 = l2);
      Alcotest.(check bool) (Printf.sprintf "cell %d imbalance" i) true (i1 = i2))
    seq

let test_task_seed_stable () =
  let key app policy =
    { Experiments.Runs.mode = Engine.Config.Xen_plus; app; policy; mcs = false }
  in
  let s1 = Experiments.Runs.task_seed ~base:42 (key "cg.C" Policies.Spec.round_4k) in
  let s2 = Experiments.Runs.task_seed ~base:42 (key "cg.C" Policies.Spec.round_4k) in
  let s3 = Experiments.Runs.task_seed ~base:42 (key "cg.C" Policies.Spec.first_touch) in
  let s4 = Experiments.Runs.task_seed ~base:7 (key "cg.C" Policies.Spec.round_4k) in
  Alcotest.(check int) "stable" s1 s2;
  Alcotest.(check bool) "policy changes the stream" true (s1 <> s3);
  Alcotest.(check bool) "base seed changes the stream" true (s1 <> s4);
  Alcotest.(check bool) "non-negative" true (s1 >= 0)

let test_parallel_runs_cache_safe () =
  (* Hammer the memoized run cache from 8 workers on the same key mix;
     every worker must observe the same result values.  A seed no
     other test uses keeps the cache cold for these keys. *)
  let seed = 90_002 in
  let app =
    match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false
  in
  let keys =
    [| Experiments.Runs.linux app Policies.Spec.first_touch;
       Experiments.Runs.linux app Policies.Spec.round_4k |]
  in
  let tasks =
    Array.init 16 (fun i () ->
        (Engine.Result.single (Experiments.Runs.run ~seed keys.(i mod 2))).Engine.Result.completion)
  in
  let results = Engine.Pool.run_all ~jobs:8 tasks in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "task %d consistent" i) true (r = results.(i mod 2)))
    results

let suite =
  [
    ( "engine.pool",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "results ordered by index" `Quick test_results_ordered_by_index;
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "lowest failure wins" `Quick test_lowest_failure_wins;
        Alcotest.test_case "jobs resolution" `Quick test_jobs_env_and_default;
      ] );
    ( "engine.pool.determinism",
      [
        Alcotest.test_case "jobs:1 == jobs:4 grid" `Slow test_parallel_equals_sequential;
        Alcotest.test_case "task_seed stable" `Quick test_task_seed_stable;
        Alcotest.test_case "parallel cache safe" `Slow test_parallel_runs_cache_safe;
      ] );
  ]
