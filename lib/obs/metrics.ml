(* Process-wide registry of named counters, gauges and log-bucketed
   latency histograms.  One mutex guards the table and every update:
   instrumentation sites are cheap and only taken when metrics are
   enabled, so contention is irrelevant next to the simulation work.

   Counter totals and histogram bucket counts are additive, so a
   parallel sweep accumulates the same registry contents whatever the
   worker count; only wall-clock-valued series (pool timings) vary. *)

type value =
  | Counter of { mutable count : int }
  | Gauge of { mutable value : float }
  | Histogram of Sim.Stats.Histogram.t

let mutex = Mutex.create ()
let table : (string, value) Hashtbl.t = Hashtbl.create 64

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let wrong_kind name = invalid_arg (Printf.sprintf "Metrics: %S already has another kind" name)

(* Guarded front doors: no-ops (one atomic read) unless metrics
   collection is on. *)
let incr ?(by = 1) name =
  if enabled () then
    Mutex.protect mutex (fun () ->
        match Hashtbl.find_opt table name with
        | Some (Counter c) -> c.count <- c.count + by
        | Some _ -> wrong_kind name
        | None -> Hashtbl.replace table name (Counter { count = by }))

let gauge name value =
  if enabled () then
    Mutex.protect mutex (fun () ->
        match Hashtbl.find_opt table name with
        | Some (Gauge g) -> g.value <- value
        | Some _ -> wrong_kind name
        | None -> Hashtbl.replace table name (Gauge { value }))

(* Fold samples into the histogram [name], creating it on first use. *)
let into_histogram name add =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Histogram h) -> add h
      | Some _ -> wrong_kind name
      | None ->
          let h = Sim.Stats.Histogram.create () in
          add h;
          Hashtbl.replace table name (Histogram h))

let observe name sample =
  if enabled () then into_histogram name (fun h -> Sim.Stats.Histogram.add h sample)

let merge_histogram name src =
  if enabled () then into_histogram name (fun h -> Sim.Stats.Histogram.merge h src)

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

type entry =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_summary

let snapshot () =
  Mutex.protect mutex (fun () ->
      Hashtbl.fold
        (fun name value acc ->
          let entry =
            match value with
            | Counter c -> Counter_value c.count
            | Gauge g -> Gauge_value g.value
            | Histogram h ->
                Histogram_value
                  {
                    count = Sim.Stats.Histogram.count h;
                    mean = Sim.Stats.Histogram.mean h;
                    p50 = Sim.Stats.Histogram.percentile h 50.0;
                    p95 = Sim.Stats.Histogram.percentile h 95.0;
                    p99 = Sim.Stats.Histogram.percentile h 99.0;
                    p999 = Sim.Stats.Histogram.percentile h 99.9;
                    max = Sim.Stats.Histogram.max h;
                  }
          in
          (name, entry) :: acc)
        table [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_value name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some (Counter c) -> Some c.count
      | Some _ | None -> None)

let reset () = Mutex.protect mutex (fun () -> Hashtbl.reset table)

let render () =
  let row fmt (name, entry) =
    match entry with
    | Counter_value n -> Format.fprintf fmt "%-44s %12d@," name n
    | Gauge_value v -> Format.fprintf fmt "%-44s %12.4f@," name v
    | Histogram_value h ->
        Format.fprintf fmt
          "%-44s %12d  mean %.3g  p50 %.3g  p95 %.3g  p99 %.3g  p99.9 %.3g  max %.3g@," name
          h.count h.mean h.p50 h.p95 h.p99 h.p999 h.max
  in
  Format.asprintf "@[<v>%a@]" (fun fmt rows -> List.iter (row fmt) rows) (snapshot ())
