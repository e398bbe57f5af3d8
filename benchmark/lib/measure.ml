let check ~max_epochs (r : Engine.Result.t) =
  let bad_vm (vm : Engine.Result.vm_result) =
    let c = vm.Engine.Result.completion and lf = vm.Engine.Result.local_fraction in
    if not (Float.is_finite c && c > 0.0) then
      Some (Printf.sprintf "%s: completion %g" vm.Engine.Result.app_name c)
    else if not (lf >= 0.0 && lf <= 1.0) then
      Some (Printf.sprintf "%s: local_fraction %g" vm.Engine.Result.app_name lf)
    else if vm.Engine.Result.latency.Engine.Result.samples = 0 then
      Some (vm.Engine.Result.app_name ^ ": no latency samples")
    else None
  in
  if r.Engine.Result.epochs >= max_epochs then
    Error (Printf.sprintf "hit max_epochs (%d)" max_epochs)
  else if r.Engine.Result.replayed_epochs > r.Engine.Result.epochs then
    Error
      (Printf.sprintf "replayed %d of %d epochs" r.Engine.Result.replayed_epochs
         r.Engine.Result.epochs)
  else match List.find_map bad_vm r.Engine.Result.vms with Some e -> Error e | None -> Ok ()

let encode (r : Engine.Result.t) = Marshal.to_string r [ Marshal.No_sharing ]

let rank p n = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "percentile: no samples";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted.(min n (rank p n) - 1)

let beyond p n = n - min n (rank p n)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "median: no samples";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n land 1 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* Allocated once, so the loop's time does not depend on the heap the
   simulator leaves behind. *)
let cal_floats = Array.make (512 * 1024) 0.0
let cal_table = Hashtbl.create 1024

let calibration_ms () =
  let t0 = Unix.gettimeofday () in
  Array.fill cal_floats 0 (Array.length cal_floats) 0.0;
  let x = ref 777 and n = Array.length cal_floats in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land (n - 1) in
    Array.unsafe_set cal_floats i (Array.unsafe_get cal_floats i +. 1.0)
  done;
  Hashtbl.reset cal_table;
  for i = 1 to 20_000 do
    Hashtbl.replace cal_table (i * 7919 land 0xFFFF) i
  done;
  ignore (Sys.opaque_identity (Hashtbl.length cal_table));
  (Unix.gettimeofday () -. t0) *. 1e3

let reference_ms = 4.0

let host_factor cal i =
  let last = Array.length cal - 1 in
  if i < 0 || i >= last then invalid_arg "host_factor: no such cell";
  let lo = max 0 (i - 1) and hi = min last (i + 2) in
  reference_ms /. median (Array.sub cal lo (hi - lo + 1))

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        Float.nan
        (String.split_on_char '\n' status)
