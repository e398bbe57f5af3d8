(* xenalyze-style digest of a merged trace: per-class counts (true
   emission totals next to what survived the rings), inter-arrival
   statistics per class over the merged order, and a per-epoch
   timeline of event activity.  One streaming fold over the trace's
   items builds it, from a file or from an in-memory export. *)

type class_row = {
  cls : Event.class_;
  emitted : int;  (* drop-proof total over all streams *)
  kept : int;  (* events present in the export *)
  inter_arrival : Sim.Stats.Histogram.t;  (* seconds between consecutive kept events *)
}

type epoch_row = {
  epoch : int;  (* -1 = before the first boundary (boot) *)
  events : int;
  faults : int;  (* page_fault + first_touch *)
  migrations : int;  (* start + retry + drain *)
  pv_ops : int;  (* record + flush + lost *)
  breaker : int;  (* trip + escalate + cooldown *)
  hypercalls : int;  (* entries *)
}

type t = {
  streams : Codec.stream_info array;
  total_emitted : int;
  total_kept : int;
  total_dropped : int;
  classes : class_row list;  (* only classes that occurred, by index *)
  timeline : epoch_row list;  (* ascending epoch *)
}

(* Epoch attribution is per stream: an event belongs to the epoch of
   the last boundary its own stream emitted before it, so interleaving
   across streams cannot reassign events.  Merged order sorts each
   stream by sequence number, so one "current epoch" cell per stream,
   read in file order, is the whole rule. *)
type epochs = (int, int) Hashtbl.t

let epochs () : epochs = Hashtbl.create 16

let epoch_of (cur : epochs) (m : Event.merged) =
  let ev = m.Event.event in
  if ev.Event.cls = Event.Epoch_boundary then Hashtbl.replace cur m.Event.stream ev.Event.arg;
  match Hashtbl.find_opt cur m.Event.stream with Some e -> e | None -> -1

(* The running state of one pass over a trace's items. *)
type acc = {
  mutable streams : Codec.stream_info list;  (* newest first *)
  emitted : int array;
  kept : int array;
  inter : Sim.Stats.Histogram.t array;
  last_time : float array;
  cur : epochs;
  rows : (int, epoch_row) Hashtbl.t;
}

let start () =
  let n = Event.class_count in
  {
    streams = [];
    emitted = Array.make n 0;
    kept = Array.make n 0;
    inter = Array.init n (fun _ -> Sim.Stats.Histogram.create ());
    last_time = Array.make n Float.nan;
    cur = epochs ();
    rows = Hashtbl.create 64;
  }

let add acc = function
  | Codec.Meta (_, s) ->
      acc.streams <- s :: acc.streams;
      Array.iteri (fun i n -> acc.emitted.(i) <- acc.emitted.(i) + n) s.Codec.by_class
  | Codec.Ev m ->
      let ev = m.Event.event in
      let i = Event.class_index ev.Event.cls in
      acc.kept.(i) <- acc.kept.(i) + 1;
      if not (Float.is_nan acc.last_time.(i)) then
        Sim.Stats.Histogram.add acc.inter.(i) (ev.Event.time -. acc.last_time.(i));
      acc.last_time.(i) <- ev.Event.time;
      let epoch = epoch_of acc.cur m in
      let row =
        match Hashtbl.find_opt acc.rows epoch with
        | Some row -> row
        | None ->
            { epoch; events = 0; faults = 0; migrations = 0; pv_ops = 0; breaker = 0;
              hypercalls = 0 }
      in
      let row = { row with events = row.events + 1 } in
      let row =
        match ev.Event.cls with
        | Event.Page_fault | Event.First_touch -> { row with faults = row.faults + 1 }
        | Event.Migrate_start | Event.Migrate_retry | Event.Migrate_drain ->
            { row with migrations = row.migrations + 1 }
        | Event.Pv_record | Event.Pv_flush -> { row with pv_ops = row.pv_ops + 1 }
        | Event.Breaker_trip | Event.Breaker_escalate | Event.Breaker_cooldown ->
            { row with breaker = row.breaker + 1 }
        | Event.Hypercall_entry -> { row with hypercalls = row.hypercalls + 1 }
        | _ -> row
      in
      Hashtbl.replace acc.rows epoch row

let finish acc =
  let streams = Array.of_list (List.rev acc.streams) in
  let sum f = Array.fold_left (fun total s -> total + f s) 0 streams in
  {
    streams;
    total_emitted = sum (fun s -> s.Codec.emitted);
    total_kept = Array.fold_left ( + ) 0 acc.kept;
    total_dropped = sum (fun s -> s.Codec.dropped);
    classes =
      List.filter_map
        (fun cls ->
          let i = Event.class_index cls in
          if acc.emitted.(i) = 0 && acc.kept.(i) = 0 then None
          else
            Some
              { cls; emitted = acc.emitted.(i); kept = acc.kept.(i); inter_arrival = acc.inter.(i) })
        Event.classes;
    timeline =
      Hashtbl.fold (fun _ row rows -> row :: rows) acc.rows []
      |> List.sort (fun a b -> compare a.epoch b.epoch);
  }

let of_file path =
  finish
    (Codec.fold_file path ~init:(start ()) ~f:(fun acc item ->
         add acc item;
         acc))

let of_export (e : Codec.export) =
  let acc = start () in
  Array.iteri (fun id s -> add acc (Codec.Meta (id, s))) e.Codec.streams;
  List.iter (fun m -> add acc (Codec.Ev m)) e.Codec.events;
  finish acc

let class_counts t = List.map (fun r -> (r.cls, r.emitted)) t.classes

let render ?(timeline_rows = 24) (t : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d streams, %d events emitted, %d kept, %d dropped\n"
       (Array.length t.streams) t.total_emitted t.total_kept t.total_dropped);
  if t.total_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "WARNING: %d events were dropped by full rings — kept counts and the timeline \
          undercount; raise --trace-cap for a complete capture\n"
         t.total_dropped);
  Buffer.add_string buf "\nper-event-class counts and inter-arrival times (kept events)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-20s %10s %10s %12s %12s %12s\n" "class" "emitted" "kept" "dt p50 (s)"
       "dt p95 (s)" "dt max (s)");
  List.iter
    (fun r ->
      let h = r.inter_arrival in
      if Sim.Stats.Histogram.count h > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%-20s %10d %10d %12.6f %12.6f %12.6f\n" (Event.class_name r.cls)
             r.emitted r.kept
             (Sim.Stats.Histogram.percentile h 50.0)
             (Sim.Stats.Histogram.percentile h 95.0)
             (Sim.Stats.Histogram.max h))
      else
        Buffer.add_string buf
          (Printf.sprintf "%-20s %10d %10d %12s %12s %12s\n" (Event.class_name r.cls) r.emitted
             r.kept "-" "-" "-"))
    t.classes;
  Buffer.add_string buf "\nper-epoch timeline (kept events; epoch -1 = boot)\n";
  Buffer.add_string buf
    (Printf.sprintf "%8s %8s %8s %10s %8s %8s %10s\n" "epoch" "events" "faults" "migrations"
       "pv-ops" "breaker" "hypercalls");
  let rows = t.timeline in
  let n = List.length rows in
  let shown = if n <= timeline_rows then rows else List.filteri (fun i _ -> i < timeline_rows) rows in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%8d %8d %8d %10d %8d %8d %10d\n" r.epoch r.events r.faults r.migrations
           r.pv_ops r.breaker r.hypercalls))
    shown;
  if n > timeline_rows then
    Buffer.add_string buf (Printf.sprintf "... (%d more epochs)\n" (n - timeline_rows));
  Buffer.add_string buf "\nstreams\n";
  Array.iteri
    (fun i (s : Codec.stream_info) ->
      Buffer.add_string buf
        (Printf.sprintf "%4d %-60s %8d emitted %8d dropped\n" i s.Codec.label s.Codec.emitted
           s.Codec.dropped))
    t.streams;
  Buffer.contents buf
