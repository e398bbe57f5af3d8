(* Tests for the obs library: trace rings, streams, the deterministic
   merge and the JSONL codec, the metrics registry, the Stats.Histogram, and
   the summary-equals-registry contract. *)

let qcheck = QCheck_alcotest.to_alcotest

(* Global-state hygiene: every test that installs a session or enables
   metrics runs inside this bracket so failures cannot leak state into
   later suites. *)
let with_clean_obs f =
  let finish () =
    Obs.Trace.uninstall ();
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ()
  in
  Fun.protect ~finally:finish f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------- ring ------------------------------ *)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:4 ~dummy:0 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "under capacity" [ 1; 2; 3 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "no drops" 0 (Obs.Ring.dropped r);
  List.iter (Obs.Ring.push r) [ 4; 5; 6 ];
  Alcotest.(check (list int)) "keeps most recent" [ 3; 4; 5; 6 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "emitted" 6 (Obs.Ring.emitted r);
  Alcotest.(check int) "dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check int) "length" 4 (Obs.Ring.length r)

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0 ~dummy:0))

(* The tentpole invariant, property-checked: for any push sequence and
   capacity, kept + dropped = emitted and the kept values are exactly
   the most recent pushes in push order. *)
let prop_ring_accounting =
  QCheck.Test.make ~name:"ring: kept+dropped=emitted, keeps newest in order" ~count:500
    QCheck.(pair (int_range 1 20) (list small_int))
    (fun (capacity, xs) ->
      let r = Obs.Ring.create ~capacity ~dummy:(-1) in
      List.iter (Obs.Ring.push r) xs;
      let kept = Obs.Ring.to_list r in
      let n = List.length xs in
      let expect =
        (* the last [min capacity n] elements of xs, in order *)
        List.filteri (fun i _ -> i >= n - capacity) xs
      in
      List.length kept + Obs.Ring.dropped r = Obs.Ring.emitted r
      && Obs.Ring.emitted r = n && kept = expect)

(* ------------------------------ stream ----------------------------- *)

let test_stream_emit () =
  let s = Obs.Stream.create ~capacity:8 ~label:"t" () in
  Obs.Stream.set_time s 1.5;
  Obs.Stream.emit ~domain:3 ~pfn:42 ~node:1 s Obs.Event.Page_fault;
  Obs.Stream.emit ~arg:7 s Obs.Event.Epoch_boundary;
  match Obs.Stream.events s with
  | [ (0, e0); (1, e1) ] ->
      Alcotest.(check (float 0.0)) "time stamped" 1.5 e0.Obs.Event.time;
      Alcotest.(check int) "domain" 3 e0.Obs.Event.domain;
      Alcotest.(check int) "pfn" 42 e0.Obs.Event.pfn;
      Alcotest.(check int) "vcpu defaulted" (-1) e0.Obs.Event.vcpu;
      Alcotest.(check int) "arg" 7 e1.Obs.Event.arg;
      Alcotest.(check bool) "classes" true
        (e0.Obs.Event.cls = Obs.Event.Page_fault && e1.Obs.Event.cls = Obs.Event.Epoch_boundary)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_stream_seq_survives_drops () =
  let s = Obs.Stream.create ~capacity:2 ~label:"t" () in
  for i = 0 to 9 do
    Obs.Stream.emit ~arg:i s Obs.Event.Pv_record
  done;
  (match Obs.Stream.events s with
  | [ (8, a); (9, b) ] ->
      Alcotest.(check int) "payload follows seq" 8 a.Obs.Event.arg;
      Alcotest.(check int) "payload follows seq" 9 b.Obs.Event.arg
  | evs -> Alcotest.failf "expected seqs 8,9, got %d events" (List.length evs));
  Alcotest.(check int) "emitted" 10 (Obs.Stream.emitted s);
  Alcotest.(check int) "dropped" 8 (Obs.Stream.dropped s);
  let by_class = Obs.Stream.emitted_by_class s in
  Alcotest.(check int) "by-class is drop-proof" 10
    by_class.(Obs.Event.class_index Obs.Event.Pv_record)

(* ------------------------------ event ------------------------------ *)

let test_event_class_roundtrip () =
  List.iter
    (fun cls ->
      Alcotest.(check bool) "name roundtrip" true
        (Obs.Event.class_of_name (Obs.Event.class_name cls) = Some cls))
    Obs.Event.classes;
  Alcotest.(check int) "class_count" (List.length Obs.Event.classes) Obs.Event.class_count;
  Alcotest.(check (list int)) "indices dense, in class order"
    (List.init Obs.Event.class_count Fun.id)
    (List.map Obs.Event.class_index Obs.Event.classes);
  Alcotest.(check bool) "bad name" true (Obs.Event.class_of_name "nope" = None)

let test_merge_order () =
  let m ~time ~stream ~seq =
    { Obs.Event.stream; seq; event = Obs.Event.make ~time Obs.Event.Page_fault }
  in
  Alcotest.(check bool) "time first" true
    (Obs.Event.compare_merged (m ~time:1.0 ~stream:9 ~seq:9) (m ~time:2.0 ~stream:0 ~seq:0) < 0);
  Alcotest.(check bool) "stream breaks time ties" true
    (Obs.Event.compare_merged (m ~time:1.0 ~stream:0 ~seq:9) (m ~time:1.0 ~stream:1 ~seq:0) < 0);
  Alcotest.(check bool) "seq breaks stream ties" true
    (Obs.Event.compare_merged (m ~time:1.0 ~stream:0 ~seq:0) (m ~time:1.0 ~stream:0 ~seq:1) < 0)

(* ---------------------------- histogram ---------------------------- *)

let test_histogram_percentiles () =
  let h = Sim.Stats.Histogram.create () in
  for i = 1 to 1000 do
    Sim.Stats.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Sim.Stats.Histogram.count h);
  let p50 = Sim.Stats.Histogram.percentile h 50.0 in
  let p99 = Sim.Stats.Histogram.percentile h 99.0 in
  (* Log buckets at base 2^(1/8): ~9% relative resolution. *)
  Alcotest.(check bool) "p50 near 500" true (p50 > 400.0 && p50 < 600.0);
  Alcotest.(check bool) "p99 near 990" true (p99 > 900.0 && p99 <= 1000.0);
  Alcotest.(check (float 0.0)) "max exact" 1000.0 (Sim.Stats.Histogram.max h);
  Alcotest.(check (float 0.0)) "min exact" 1.0 (Sim.Stats.Histogram.min h);
  Alcotest.(check bool) "percentiles clamped to observed range" true
    (Sim.Stats.Histogram.percentile h 0.0 >= 1.0
    && Sim.Stats.Histogram.percentile h 100.0 <= 1000.0)

let test_histogram_empty_and_zeros () =
  let h = Sim.Stats.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Sim.Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Sim.Stats.Histogram.mean h);
  Sim.Stats.Histogram.add h 0.0;
  Sim.Stats.Histogram.add h 0.0;
  Alcotest.(check int) "zeros counted" 2 (Sim.Stats.Histogram.count h);
  Alcotest.(check (float 0.0)) "all-zero p99 is 0" 0.0 (Sim.Stats.Histogram.percentile h 99.0)

let test_histogram_merge () =
  let a = Sim.Stats.Histogram.create () and b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 1.0;
  Sim.Stats.Histogram.add b 100.0;
  Sim.Stats.Histogram.merge a b;
  Alcotest.(check int) "merged count" 2 (Sim.Stats.Histogram.count a);
  Alcotest.(check (float 0.0)) "merged max" 100.0 (Sim.Stats.Histogram.max a)

(* ----------------------------- metrics ----------------------------- *)

let test_metrics_registry () =
  with_clean_obs (fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      Obs.Metrics.incr "b.counter";
      Obs.Metrics.incr ~by:4 "b.counter";
      Obs.Metrics.gauge "a.gauge" 2.5;
      Obs.Metrics.observe "c.lat" 0.5;
      Obs.Metrics.observe "c.lat" 1.5;
      (match Obs.Metrics.snapshot () with
      | [ (na, Obs.Metrics.Gauge_value g); (nb, Obs.Metrics.Counter_value c);
          (nc, Obs.Metrics.Histogram_value h) ] ->
          Alcotest.(check string) "sorted 1" "a.gauge" na;
          Alcotest.(check string) "sorted 2" "b.counter" nb;
          Alcotest.(check string) "sorted 3" "c.lat" nc;
          Alcotest.(check (float 0.0)) "gauge" 2.5 g;
          Alcotest.(check int) "counter" 5 c;
          Alcotest.(check int) "histogram count" 2 h.Obs.Metrics.count;
          Alcotest.(check (float 1e-9)) "histogram mean" 1.0 h.Obs.Metrics.mean
      | s -> Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length s));
      Alcotest.(check (option int)) "counter_value" (Some 5)
        (Obs.Metrics.counter_value "b.counter");
      Alcotest.(check (option int)) "absent counter" None (Obs.Metrics.counter_value "missing"))

let test_metrics_disabled_noop () =
  with_clean_obs (fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.incr "nope";
      Obs.Metrics.gauge "nope.g" 1.0;
      Obs.Metrics.observe "nope.h" 1.0;
      Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Metrics.snapshot ()));
      Obs.Metrics.set_enabled true;
      Obs.Metrics.incr "yes";
      Alcotest.(check (option int)) "recorded once enabled" (Some 1)
        (Obs.Metrics.counter_value "yes"))

(* ------------------------------- json ------------------------------ *)

let test_json_parse () =
  let j = Obs.Json.of_string {|{"a": 1, "b": [true, null, "x\n"], "c": -2.5e1}|} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Obs.Json.member "a" j) Obs.Json.to_int);
  Alcotest.(check (option (float 0.0))) "float member" (Some (-25.0))
    (Option.bind (Obs.Json.member "c" j) Obs.Json.to_float);
  (match Obs.Json.member "b" j with
  | Some (Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null; Obs.Json.String s ]) ->
      Alcotest.(check string) "escape decoded" "x\n" s
  | _ -> Alcotest.fail "list member shape");
  Alcotest.(check bool) "trailing garbage rejected" true
    (Obs.Json.of_string_opt "{} junk" = None);
  Alcotest.(check bool) "bare word rejected" true (Obs.Json.of_string_opt "nope" = None);
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\n" (Obs.Json.escape "a\"b\\c\n")

(* -------------------------- trace and codec ------------------------ *)

let mk_session () =
  let session = Obs.Trace.create ~capacity:8 () in
  let a = Obs.Trace.stream session ~label:"b-second" in
  let b = Obs.Trace.stream session ~label:"a-first" in
  Obs.Stream.set_time a 0.0;
  Obs.Stream.set_time b 0.0;
  Obs.Stream.emit ~domain:0 ~pfn:1 ~node:2 a Obs.Event.Page_fault;
  Obs.Stream.emit ~domain:1 ~arg:48 b Obs.Event.Hypercall_entry;
  Obs.Stream.set_time a 1.0;
  Obs.Stream.set_time b 1.0;
  Obs.Stream.emit ~arg:1 a Obs.Event.Epoch_boundary;
  Obs.Stream.emit ~domain:1 ~arg:900 b Obs.Event.Hypercall_exit;
  session

let with_temp_file suffix data f =
  let path = Filename.temp_file "xen-numa-test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      f path)

(* Rebuild an export from a trace file through the one reader. *)
let read_export path =
  let streams, events =
    Obs.Codec.fold_file path ~init:([], []) ~f:(fun (streams, events) item ->
        match item with
        | Obs.Codec.Meta (_, s) -> (s :: streams, events)
        | Obs.Codec.Ev m -> (streams, m :: events))
  in
  { Obs.Codec.streams = Array.of_list (List.rev streams); events = List.rev events }

let check_export_equal msg (a : Obs.Codec.export) (b : Obs.Codec.export) =
  Alcotest.(check int) (msg ^ ": stream count") (Array.length a.Obs.Codec.streams)
    (Array.length b.Obs.Codec.streams);
  Array.iteri
    (fun i (sa : Obs.Codec.stream_info) ->
      let sb = b.Obs.Codec.streams.(i) in
      Alcotest.(check string) (msg ^ ": label") sa.Obs.Codec.label sb.Obs.Codec.label;
      Alcotest.(check int) (msg ^ ": emitted") sa.Obs.Codec.emitted sb.Obs.Codec.emitted;
      Alcotest.(check int) (msg ^ ": dropped") sa.Obs.Codec.dropped sb.Obs.Codec.dropped;
      Alcotest.(check (array int)) (msg ^ ": by_class") sa.Obs.Codec.by_class sb.Obs.Codec.by_class)
    a.Obs.Codec.streams;
  Alcotest.(check bool) (msg ^ ": events equal") true (a.Obs.Codec.events = b.Obs.Codec.events)

let test_trace_merge () =
  let session = mk_session () in
  let e = Obs.Trace.export session in
  (* Streams sorted by label, not registration order. *)
  Alcotest.(check string) "stream 0" "a-first" e.Obs.Codec.streams.(0).Obs.Codec.label;
  Alcotest.(check string) "stream 1" "b-second" e.Obs.Codec.streams.(1).Obs.Codec.label;
  let order =
    List.map
      (fun (m : Obs.Event.merged) -> (m.Obs.Event.event.Obs.Event.time, m.Obs.Event.stream))
      e.Obs.Codec.events
  in
  Alcotest.(check bool) "merged by (time, stream, seq)" true
    (order = [ (0.0, 0); (0.0, 1); (1.0, 0); (1.0, 1) ])

(* One label is one run: streams registered under it more than once
   (two grid cells that are the same run) export as one stream. *)
let test_trace_duplicate_identical_exported_once () =
  let session = Obs.Trace.create () in
  let emit s =
    Obs.Stream.set_time s 0.5;
    Obs.Stream.emit ~domain:1 ~pfn:7 s Obs.Event.Page_fault;
    Obs.Stream.emit ~arg:3 s Obs.Event.Epoch_boundary
  in
  List.iter (fun label -> emit (Obs.Trace.stream session ~label)) [ "same"; "other"; "same" ];
  Alcotest.(check int) "one stream per label" 2 (Obs.Trace.stream_count session);
  let e = Obs.Trace.export session in
  let label (s : Obs.Codec.stream_info) = s.Obs.Codec.label in
  Alcotest.(check (list string)) "labels" [ "other"; "same" ]
    (Array.to_list (Array.map label e.Obs.Codec.streams));
  Alcotest.(check int) "one copy of the duplicate's events" 4 (List.length e.Obs.Codec.events)

(* Streams under one label that differ are no longer one run: the
   export names the label instead of keeping either. *)
let test_trace_duplicate_differing_raises () =
  let differing name second =
    let session = Obs.Trace.create ~capacity:2 () in
    Obs.Stream.emit ~pfn:1 (Obs.Trace.stream session ~label:"dup|seed=1") Obs.Event.Page_fault;
    ignore (Obs.Trace.stream session ~label:"other");
    second (Obs.Trace.stream session ~label:"dup|seed=1");
    Alcotest.check_raises name
      (Invalid_argument "Trace: two runs labelled \"dup|seed=1\" emitted different events")
      (fun () -> ignore (Obs.Trace.export session))
  in
  differing "another class" (fun s -> Obs.Stream.emit ~pfn:1 s Obs.Event.First_touch);
  differing "same counts, another pfn" (fun s -> Obs.Stream.emit ~pfn:2 s Obs.Event.Page_fault);
  differing "more emitted, one dropped" (fun s ->
      List.iter (fun pfn -> Obs.Stream.emit ~pfn s Obs.Event.Page_fault) [ 0; 0; 1 ]);
  differing "no events" ignore

let test_codec_roundtrips () =
  let session = mk_session () in
  with_temp_file ".trace" (Obs.Trace.render_jsonl session) (fun path ->
      check_export_equal "jsonl" (Obs.Trace.export session) (read_export path))

(* One format: the file name's suffix selects nothing. *)
let test_write_file_ignores_suffix () =
  let session = mk_session () in
  let written suffix =
    with_temp_file suffix "" (fun path ->
        Obs.Trace.write_file session path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let jsonl = written ".jsonl" in
  Alcotest.(check string) "jsonl file = render_jsonl" (Obs.Trace.render_jsonl session) jsonl;
  Alcotest.(check string) ".bin file = .jsonl file" jsonl (written ".bin")

(* An unwritable path fails before a session is installed, so a front
   end can report it before any run. *)
let test_start_unwritable () =
  with_clean_obs (fun () ->
      (match Obs.Trace.start ~capacity:8 "/no-such-dir/t.jsonl" with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "unwritable path accepted");
      Alcotest.(check bool) "nothing installed" false (Obs.Trace.installed ());
      with_temp_file ".jsonl" "stale" (fun path ->
          let session = Obs.Trace.start ~capacity:8 path in
          Alcotest.(check bool) "installed" true
            (match Obs.Trace.current () with Some s -> s == session | None -> false);
          Alcotest.(check string) "file emptied" ""
            (In_channel.with_open_bin path In_channel.input_all)))

let test_codec_rejects_corrupt () =
  let outcome data =
    with_temp_file ".trace" data (fun path ->
        match read_export path with exception Obs.Codec.Corrupt msg -> Some msg | _ -> None)
  in
  Alcotest.(check bool) "bad jsonl raises" true (outcome "{\"bogus\": 1}\n" <> None);
  Alcotest.(check bool) "not json raises" true (outcome "XNUMATR0 is not a trace\n" <> None);
  (* A trace cut inside a line ends in a partial object, which is not
     JSON, wherever the cut falls (the line-boundary cuts are
     obs.query "jsonl cut at a line rejected"). *)
  let jsonl = Obs.Trace.render_jsonl (mk_session ()) in
  for n = 1 to String.length jsonl - 2 do
    if jsonl.[n - 1] <> '\n' && jsonl.[n] <> '\n' then
      match outcome (String.sub jsonl 0 n) with
      | Some msg when contains msg "not valid JSON" -> ()
      | Some msg -> Alcotest.failf "cut after %d bytes: %s" n msg
      | None -> Alcotest.failf "cut after %d bytes accepted" n
  done

(* ---------------------- engine-level determinism ------------------- *)

let small_cfg ~seed =
  let app =
    match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false
  in
  let vm = Engine.Config.vm ~threads:4 ~policy:Policies.Spec.first_touch app in
  Engine.Config.make ~seed ~max_epochs:40 ~mode:Engine.Config.Xen_plus [ vm ]

(* The acceptance criterion, in-process: the same fixed-seed mini-grid
   traced at --jobs 1 and --jobs 4 renders byte-identical JSONL. *)
let test_trace_jobs_byte_identical () =
  with_clean_obs (fun () ->
      let grid jobs =
        let session = Obs.Trace.create ~capacity:512 () in
        Obs.Trace.install session;
        let tasks =
          Array.init 4 (fun i () -> ignore (Engine.Runner.run (small_cfg ~seed:(100 + i))))
        in
        ignore (Engine.Pool.run_all ~jobs tasks);
        Obs.Trace.uninstall ();
        Obs.Trace.render_jsonl session
      in
      let t1 = grid 1 in
      let t4 = grid 4 in
      Alcotest.(check bool) "traces non-trivial" true (String.length t1 > 1000);
      Alcotest.(check string) "jobs 1 = jobs 4, byte for byte" t1 t4)

(* Every run of a grid exports its own stream: motivation's pinned and
   migrating first-touch runs differ only in vCPU pinning, which the
   run label carries. *)
let test_motivation_exports_every_run () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create ~capacity:64 () in
      Obs.Trace.install session;
      let configs = Experiments.Motivation.configs () in
      List.iter (fun (_, cfg) -> ignore (Engine.Runner.run cfg)) configs;
      Obs.Trace.uninstall ();
      Alcotest.(check int) "three runs" 3 (List.length configs);
      Alcotest.(check int) "one stream per run" 3
        (Array.length (Obs.Trace.export session).Obs.Codec.streams))

let test_runner_untraced_emits_nothing () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create () in
      (* NOT installed: the runner must not register streams. *)
      ignore (Engine.Runner.run (small_cfg ~seed:7));
      Alcotest.(check int) "no streams" 0 (Obs.Trace.stream_count session);
      Alcotest.(check bool) "no session installed" false (Obs.Trace.installed ());
      Alcotest.(check bool) "obs disabled" false (Obs.enabled ()))

(* The summariser over the exported file reports exactly the per-class
   counts commit_metrics mirrors into the registry. *)
let test_summary_matches_registry () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create ~capacity:256 () in
      Obs.Trace.install session;
      Obs.Metrics.set_enabled true;
      ignore (Engine.Runner.run (small_cfg ~seed:3));
      Obs.Trace.uninstall ();
      Obs.Trace.commit_metrics session;
      let summary =
        with_temp_file ".jsonl" (Obs.Trace.render_jsonl session) Obs.Summary.of_file
      in
      let counts = Obs.Summary.class_counts summary in
      Alcotest.(check bool) "run produced events" true (counts <> []);
      List.iter
        (fun (cls, emitted) ->
          let name = "obs.trace.events." ^ Obs.Event.class_name cls in
          Alcotest.(check (option int)) name (Some emitted) (Obs.Metrics.counter_value name))
        counts;
      Alcotest.(check (option int)) "total emitted mirrored"
        (Some summary.Obs.Summary.total_emitted)
        (Obs.Metrics.counter_value "obs.trace.emitted");
      Alcotest.(check (option int)) "drops mirrored"
        (Some summary.Obs.Summary.total_dropped)
        (Obs.Metrics.counter_value "obs.trace.dropped"))

let test_summary_timeline () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create ~capacity:4096 () in
      Obs.Trace.install session;
      ignore (Engine.Runner.run (small_cfg ~seed:11));
      Obs.Trace.uninstall ();
      let summary = Obs.Summary.of_export (Obs.Trace.export session) in
      let epochs = List.map (fun r -> r.Obs.Summary.epoch) summary.Obs.Summary.timeline in
      Alcotest.(check bool) "timeline non-empty" true (epochs <> []);
      Alcotest.(check bool) "epochs ascending" true
        (List.sort compare epochs = epochs);
      let rendered = Obs.Summary.render ~timeline_rows:4 summary in
      Alcotest.(check bool) "render mentions classes" true
        (String.length rendered > 0
        && (let contains s sub =
              let n = String.length sub in
              let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
              go 0
            in
            contains rendered "epoch_boundary")))

(* ----------------------- latency histogram ------------------------- *)

(* Everything percentiles depend on, minus the float [total]/[sum]
   accumulators: merge folds sums in different orders on each side of
   an associativity check, so bit-comparing them would reject a correct
   merge. *)
let hist_fingerprint h =
  ( Sim.Stats.Histogram.bucket_counts h,
    Sim.Stats.Histogram.zeros h,
    Sim.Stats.Histogram.count h,
    Sim.Stats.Histogram.min h,
    Sim.Stats.Histogram.max h,
    List.map (Sim.Stats.Histogram.percentile h) [ 0.0; 50.0; 95.0; 99.0; 99.9; 100.0 ] )

let hist_of xs =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) xs;
  h

let samples_gen = QCheck.(list (float_bound_inclusive 1e6))

let prop_hist_merge_commutative =
  QCheck.Test.make ~name:"histogram: merge is commutative" ~count:300
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let ab = hist_of xs in
      Sim.Stats.Histogram.merge ab (hist_of ys);
      let ba = hist_of ys in
      Sim.Stats.Histogram.merge ba (hist_of xs);
      hist_fingerprint ab = hist_fingerprint ba)

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"histogram: merge is associative" ~count:300
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let left = hist_of xs in
      Sim.Stats.Histogram.merge left (hist_of ys);
      Sim.Stats.Histogram.merge left (hist_of zs);
      let bc = hist_of ys in
      Sim.Stats.Histogram.merge bc (hist_of zs);
      let right = hist_of xs in
      Sim.Stats.Histogram.merge right bc;
      hist_fingerprint left = hist_fingerprint right)

(* Bucket counts are additive: histograms of a partition of the
   samples, merged, equal the histogram of the whole — what lets the
   metrics registry merge per-run histograms at any --jobs. *)
let prop_hist_sharded_equals_whole =
  QCheck.Test.make ~name:"histogram: shard-merge equals unsharded whole" ~count:300
    QCheck.(pair (int_range 1 8) samples_gen)
    (fun (shards, xs) ->
      let parts = Array.init shards (fun _ -> Sim.Stats.Histogram.create ()) in
      List.iteri (fun i x -> Sim.Stats.Histogram.add parts.(i mod shards) x) xs;
      let merged = Sim.Stats.Histogram.create () in
      Array.iter (Sim.Stats.Histogram.merge merged) parts;
      hist_fingerprint merged = hist_fingerprint (hist_of xs))

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"histogram: percentile is monotone in p" ~count:300
    QCheck.(pair samples_gen (list (float_bound_inclusive 100.0)))
    (fun (xs, ps) ->
      let h = hist_of xs in
      let ps = List.sort compare ps in
      let values = List.map (Sim.Stats.Histogram.percentile h) ps in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a <= b && ascending rest
        | _ -> true
      in
      ascending values)

(* ------------------------------ query ------------------------------ *)

(* Exact-string check: the unknown-class error must enumerate every
   valid class, so a typo is self-correcting from the message alone. *)
let test_query_unknown_class_message () =
  let expected =
    "unknown event class \"bogus\"; valid classes: hypercall_entry, hypercall_exit, \
     page_fault, first_touch, migrate_start, migrate_retry, migrate_defer, migrate_drain, \
     pv_record, pv_flush, breaker_trip, breaker_escalate, breaker_cooldown, \
     reconcile_sweep, epoch_boundary, splinter, promote, superpage_migrate, pv_dedup, \
     p2m_batch, ecc_ce, ecc_ue, page_offline, node_drain, evacuate, pt_walk, \
     pt_replica_update, pt_replica_invalidate"
  in
  (match Obs.Query.parse_class "bogus" with
  | Error msg -> Alcotest.(check string) "enumerates all classes" expected msg
  | Ok _ -> Alcotest.fail "bogus accepted");
  match Obs.Query.parse_classes "page_fault,nope" with
  | Error msg -> Alcotest.(check bool) "list parser propagates" true (contains msg "\"nope\"")
  | Ok _ -> Alcotest.fail "bad list accepted"

let test_query_parsers () =
  (match Obs.Query.parse_classes " page_fault , migrate_start ,," with
  | Ok [ Obs.Event.Page_fault; Obs.Event.Migrate_start ] -> ()
  | Ok _ -> Alcotest.fail "wrong classes"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "single epoch" true (Obs.Query.parse_epochs "7" = Ok (7, 7));
  Alcotest.(check bool) "window" true (Obs.Query.parse_epochs "10-20" = Ok (10, 20));
  (match Obs.Query.parse_epochs "x" with
  | Error msg ->
      Alcotest.(check string) "epoch error"
        "bad epoch window \"x\"; expected EPOCH or LO-HI (e.g. 10-20)" msg
  | Ok _ -> Alcotest.fail "bad window accepted")

let test_slo_parser () =
  (match Engine.Config.parse_slo "p99=300, mean=2.5" with
  | Ok [ ("p99", t1); ("mean", t2) ] ->
      Alcotest.(check (float 0.0)) "first target" 300.0 t1;
      Alcotest.(check (float 0.0)) "second target" 2.5 t2
  | Ok _ -> Alcotest.fail "wrong objectives"
  | Error msg -> Alcotest.fail msg);
  (match Engine.Config.parse_slo "p42=1" with
  | Error msg ->
      Alcotest.(check string) "unknown metric enumerates"
        "unknown SLO metric \"p42\"; valid metrics: mean, p50, p95, p99, p999" msg
  | Ok _ -> Alcotest.fail "p42 accepted");
  (match Engine.Config.parse_slo "p99" with
  | Error msg -> Alcotest.(check bool) "missing target" true (contains msg "expected METRIC=TARGET")
  | Ok _ -> Alcotest.fail "missing target accepted");
  match Engine.Config.parse_slo "p99=-3" with
  | Error msg -> Alcotest.(check bool) "negative target" true (contains msg "positive")
  | Ok _ -> Alcotest.fail "negative target accepted"

(* Acceptance criterion: with an empty filter, query over the file
   reproduces the per-class emitted and kept counts Summary reports. *)
let test_query_matches_summary () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create ~capacity:256 () in
      Obs.Trace.install session;
      ignore (Engine.Runner.run (small_cfg ~seed:5));
      Obs.Trace.uninstall ();
      let summary = Obs.Summary.of_export (Obs.Trace.export session) in
      with_temp_file ".jsonl" (Obs.Trace.render_jsonl session) (fun path ->
            let q = Obs.Query.run (Obs.Query.filter ()) path in
            Alcotest.(check int) "scanned = kept" summary.Obs.Summary.total_kept
              q.Obs.Query.scanned;
            Alcotest.(check int) "dropped" summary.Obs.Summary.total_dropped
              q.Obs.Query.dropped;
            List.iter
              (fun (row : Obs.Summary.class_row) ->
                let qrow =
                  List.find_opt
                    (fun (r : Obs.Query.class_row) -> r.Obs.Query.cls = row.Obs.Summary.cls)
                    q.Obs.Query.rows
                in
                match qrow with
                | None ->
                    Alcotest.failf "class %s missing from query"
                      (Obs.Event.class_name row.Obs.Summary.cls)
                | Some r ->
                    Alcotest.(check int)
                      ("emitted " ^ Obs.Event.class_name row.Obs.Summary.cls)
                      row.Obs.Summary.emitted r.Obs.Query.emitted;
                    Alcotest.(check int)
                      ("kept " ^ Obs.Event.class_name row.Obs.Summary.cls)
                      row.Obs.Summary.kept r.Obs.Query.matched)
              summary.Obs.Summary.classes))

(* Hot frames rank by count, ties toward the smaller pfn whatever the
   emission order; [top] cuts the ranking and is at least 1. *)
let test_query_top_pfns () =
  let session = Obs.Trace.create ~capacity:64 () in
  let s = Obs.Trace.stream session ~label:"hot" in
  Obs.Stream.set_time s 0.0;
  List.iter
    (fun pfn -> Obs.Stream.emit ~domain:0 ~pfn s Obs.Event.Page_fault)
    [ 9; 4; 7; 9; 2; 7; 4; 7; 30; 9 ];
  with_temp_file ".jsonl" (Obs.Trace.render_jsonl session) (fun path ->
      let top n = (Obs.Query.run ~top:n (Obs.Query.filter ()) path).Obs.Query.top_pfns in
      Alcotest.(check (list (pair int int))) "count desc, then pfn asc"
        [ (7, 3); (9, 3); (4, 2); (2, 1); (30, 1) ]
        (top 10);
      Alcotest.(check (list (pair int int))) "top 3 cuts a tie" [ (7, 3); (9, 3); (4, 2) ] (top 3);
      Alcotest.(check (list (pair int int))) "top 0 keeps one" [ (7, 3) ] (top 0))

let test_query_filters () =
  let session = mk_session () in
  (* mk_session: stream a (label b-second, stream index 1) emits a
     page fault on domain 0 node 2 at t=0 and an epoch-1 boundary at
     t=1; stream b (a-first, index 0) emits two domain-1 hypercalls. *)
  with_temp_file ".jsonl" (Obs.Trace.render_jsonl session) (fun path ->
      let q =
        Obs.Query.run (Obs.Query.filter ~classes:[ Obs.Event.Page_fault ] ~domain:0 ()) path
      in
      Alcotest.(check int) "class+dom match" 1 q.Obs.Query.matched;
      Alcotest.(check (list (pair int int))) "top pfn" [ (1, 1) ] q.Obs.Query.top_pfns;
      let q2 = Obs.Query.run (Obs.Query.filter ~domain:9 ()) path in
      Alcotest.(check int) "absent domain" 0 q2.Obs.Query.matched;
      (* The boundary is attributed to the epoch it opens; everything
         before the stream's first boundary sits at epoch -1. *)
      let q3 = Obs.Query.run (Obs.Query.filter ~epoch_lo:1 ~epoch_hi:1 ()) path in
      Alcotest.(check int) "epoch window keeps the boundary" 1 q3.Obs.Query.matched;
      let q4 = Obs.Query.run (Obs.Query.filter ~epoch_lo:(-1) ~epoch_hi:(-1) ()) path in
      Alcotest.(check int) "boot epoch keeps the rest" 3 q4.Obs.Query.matched;
      let table = Obs.Query.render_table q in
      Alcotest.(check bool) "table lists the class" true (contains table "page_fault");
      let jsonl = Obs.Query.render_jsonl q in
      Alcotest.(check bool) "jsonl self-describes" true (contains jsonl "\"query\"");
      let csv = Obs.Query.heatmap_csv q in
      Alcotest.(check bool) "heatmap has the node column" true (contains csv "node2"))

let test_query_streaming_rejects_corrupt () =
  let session = mk_session () in
  let jsonl = Obs.Trace.render_jsonl session in
  let truncated = String.sub jsonl 0 (String.length jsonl - 7) in
  with_temp_file ".jsonl" truncated (fun path ->
      Alcotest.(check bool) "jsonl cut mid-line raises" true
        (match Obs.Query.run (Obs.Query.filter ()) path with
        | exception Obs.Codec.Corrupt _ -> true
        | _ -> false));
  with_temp_file ".jsonl" (jsonl ^ "this is not json\n") (fun path ->
      Alcotest.(check bool) "malformed jsonl line raises" true
        (match Obs.Query.run (Obs.Query.filter ()) path with
        | exception Obs.Codec.Corrupt _ -> true
        | _ -> false))

(* A JSONL trace cut at a line boundary parses line by line; the
   header's stream and event counts must still expose the missing
   tail, for every reader of the fold. *)
let test_jsonl_cut_at_line_boundary () =
  let jsonl = Obs.Trace.render_jsonl (mk_session ()) in
  let lines = String.split_on_char '\n' jsonl in
  let prefix n = String.concat "\n" (List.filteri (fun i _ -> i < n) lines) ^ "\n" in
  let raises f = match f () with exception Obs.Codec.Corrupt _ -> true | _ -> false in
  (* Header, two stream records, four events: every proper prefix past
     the header is short of one or the other. *)
  for n = 1 to List.length lines - 2 do
    with_temp_file ".jsonl" (prefix n) (fun path ->
        Alcotest.(check bool) (Printf.sprintf "summary rejects %d lines" n) true
          (raises (fun () -> Obs.Summary.of_file path));
        Alcotest.(check bool) (Printf.sprintf "query rejects %d lines" n) true
          (raises (fun () -> Obs.Query.run (Obs.Query.filter ()) path)))
  done;
  with_temp_file ".jsonl" (String.concat "\n" (List.tl lines)) (fun path ->
      Alcotest.(check bool) "headerless events rejected" true
        (raises (fun () -> Obs.Summary.of_file path)));
  with_temp_file ".jsonl" jsonl (fun path ->
      Alcotest.(check int) "the whole file still streams" 4
        (Obs.Query.run (Obs.Query.filter ()) path).Obs.Query.matched)

(* Stream records must run 0, 1, 2, ...: a stream id with no metadata
   record is corrupt even when the header's counts add up, and a stream
   record after an event is out of place. *)
let test_jsonl_stream_gap_rejected () =
  let lines = String.split_on_char '\n' (Obs.Trace.render_jsonl (mk_session ())) in
  let replace_prefix ~prefix ~by l =
    let n = String.length prefix in
    if String.length l >= n && String.sub l 0 n = prefix then
      by ^ String.sub l n (String.length l - n)
    else l
  in
  let raises data =
    with_temp_file ".jsonl" data (fun path ->
        match Obs.Query.run (Obs.Query.filter ()) path with
        | exception Obs.Codec.Corrupt _ -> true
        | _ -> false)
  in
  let gap =
    List.map (replace_prefix ~prefix:"{\"stream\":1," ~by:"{\"stream\":2,") lines
  in
  Alcotest.(check bool) "stream 1 missing, stream 2 present" true
    (raises (String.concat "\n" gap));
  (* Header, stream 0, stream 1, events: move stream 1 behind the first event. *)
  let late =
    match lines with
    | header :: s0 :: s1 :: ev :: rest -> header :: s0 :: ev :: s1 :: rest
    | _ -> Alcotest.fail "unexpected trace shape"
  in
  Alcotest.(check bool) "stream record after an event" true (raises (String.concat "\n" late))

(* The writer emits one stream per run, in ascending label order: a
   file with two streams under one label, or with labels out of order,
   is corrupt for every reader. *)
let test_jsonl_duplicate_label_rejected () =
  let file labels =
    let e = Obs.Trace.export (mk_session ()) in
    let streams =
      Array.map2
        (fun (s : Obs.Codec.stream_info) label -> { s with Obs.Codec.label })
        e.Obs.Codec.streams labels
    in
    let buf = Buffer.create 1024 in
    Obs.Codec.write_jsonl buf { e with Obs.Codec.streams };
    Buffer.contents buf
  in
  let rejected labels =
    with_temp_file ".jsonl" (file labels) (fun path ->
        let corrupt f = match f path with exception Obs.Codec.Corrupt _ -> true | _ -> false in
        corrupt (Obs.Query.run (Obs.Query.filter ()))
        && corrupt Obs.Summary.of_file
        && corrupt (fun path -> Obs.Codec.fold_file path ~init:() ~f:(fun () _ -> ())))
  in
  Alcotest.(check bool) "ascending labels read" false (rejected [| "a-first"; "b-second" |]);
  Alcotest.(check bool) "two streams under one label" true (rejected [| "a-first"; "a-first" |]);
  Alcotest.(check bool) "labels out of order" true (rejected [| "b-second"; "a-first" |])

(* The file fold and the in-memory export fold are one summary: a
   multi-stream engine trace renders identically through both. *)
let test_summary_file_equals_export () =
  with_clean_obs (fun () ->
      let session = Obs.Trace.create ~capacity:512 () in
      Obs.Trace.install session;
      List.iter (fun seed -> ignore (Engine.Runner.run (small_cfg ~seed))) [ 21; 22; 23 ];
      Obs.Trace.uninstall ();
      Alcotest.(check int) "three streams" 3 (Obs.Trace.stream_count session);
      let expected = Obs.Summary.render (Obs.Summary.of_export (Obs.Trace.export session)) in
      with_temp_file ".jsonl" (Obs.Trace.render_jsonl session) (fun path ->
          Alcotest.(check string) "jsonl file" expected
            (Obs.Summary.render (Obs.Summary.of_file path))))

let test_summary_drop_warning () =
  let session = Obs.Trace.create ~capacity:2 () in
  let s = Obs.Trace.stream session ~label:"hot" in
  for i = 0 to 9 do
    Obs.Stream.emit ~arg:i s Obs.Event.Pv_record
  done;
  let rendered = Obs.Summary.render (Obs.Summary.of_export (Obs.Trace.export session)) in
  Alcotest.(check bool) "summary warns on drops" true
    (contains rendered "WARNING:" && contains rendered "dropped by full rings");
  let clean = Obs.Summary.render (Obs.Summary.of_export (Obs.Trace.export (mk_session ()))) in
  Alcotest.(check bool) "no warning without drops" false (contains clean "WARNING:")

(* ----------------------------- profiler ---------------------------- *)

let with_clean_profile f =
  let finish () =
    Obs.Profile.set_enabled false;
    Obs.Profile.reset ()
  in
  Obs.Profile.set_enabled false;
  Obs.Profile.reset ();
  Fun.protect ~finally:finish f

let test_profile_disabled_noop () =
  with_clean_profile (fun () ->
      Alcotest.(check bool) "disabled by default" false (Obs.Profile.enabled ());
      Alcotest.(check int) "span passes the value through" 42
        (Obs.Profile.span Obs.Profile.Reduce (fun () -> 42));
      Alcotest.(check bool) "nothing recorded while disabled" true
        (List.for_all (fun (_, calls, ns) -> calls = 0 && ns = 0) (Obs.Profile.totals ()));
      Alcotest.(check bool) "empty render says so" true
        (contains (Obs.Profile.render ()) "no profiled spans"))

let test_profile_spans_accumulate () =
  with_clean_profile (fun () ->
      Obs.Profile.set_enabled true;
      ignore (Obs.Profile.span Obs.Profile.Reduce (fun () -> 1));
      (* Spans record on the exception path too (Fun.protect). *)
      (try Obs.Profile.span Obs.Profile.Reduce (fun () -> failwith "boom") with
      | Failure _ -> ());
      ignore (Obs.Profile.span Obs.Profile.P2m_batch (fun () -> ()));
      let totals = Obs.Profile.totals () in
      let calls name =
        match List.find_opt (fun (n, _, _) -> n = name) totals with
        | Some (_, c, _) -> c
        | None -> Alcotest.failf "phase %s missing from totals" name
      in
      Alcotest.(check int) "reduce spans counted" 2 (calls "reduce");
      Alcotest.(check int) "p2m spans counted" 1 (calls "p2m.batch");
      Alcotest.(check int) "untouched phase stays zero" 0 (calls "pv.flush");
      Alcotest.(check bool) "render lists hit phases" true
        (contains (Obs.Profile.render ()) "reduce");
      with_clean_obs (fun () ->
          Obs.Metrics.set_enabled true;
          Obs.Profile.commit_metrics ();
          Alcotest.(check (option int)) "calls mirrored to registry" (Some 2)
            (Obs.Metrics.counter_value "profile.reduce.calls")))

(* --------------------------- SLO accounting ------------------------ *)

let slo_cfg ?fast_forward ~seed ~slo () =
  let app =
    match Workloads.Catalogue.find "swaptions" with Some a -> a | None -> assert false
  in
  let vm = Engine.Config.vm ~threads:4 ~policy:Policies.Spec.first_touch app in
  Engine.Config.make ~seed ~max_epochs:40 ?fast_forward ~slo ~mode:Engine.Config.Xen_plus
    [ vm ]

(* The latency summary and SLO rows are a pure function of the config:
   a rerun at the same seed, and a run with the epoch fast-forward off,
   reproduce them exactly.  The p99 target of 158.7 cycles lies between
   the run's epoch latencies: the first epoch stays below it, the
   steady state (~158.8) exceeds it, so its violations land on
   replayed epochs, whose verdicts are recomputed from the capture. *)
let test_latency_reproducible () =
  let slo = [ ("p99", 250.0); ("mean", 200.0); ("p99", 158.7) ] in
  let run fast_forward = Engine.Runner.run (slo_cfg ~fast_forward ~seed:21 ~slo ()) in
  let r = run true and r_naive = run false in
  let v = Engine.Result.single r
  and again = Engine.Result.single (run true)
  and naive = Engine.Result.single r_naive in
  Alcotest.(check bool) "samples recorded" true (v.Engine.Result.latency.Engine.Result.samples > 0);
  Alcotest.(check bool) "rerun latency summary bit-identical" true
    (v.Engine.Result.latency = again.Engine.Result.latency);
  Alcotest.(check bool) "rerun slo rows bit-identical" true (v.Engine.Result.slo = again.Engine.Result.slo);
  Alcotest.(check bool) "fast-forward off latency summary bit-identical" true
    (v.Engine.Result.latency = naive.Engine.Result.latency);
  Alcotest.(check bool) "fast-forward off slo rows bit-identical" true
    (v.Engine.Result.slo = naive.Engine.Result.slo);
  Alcotest.(check bool) "fast-forward off result bit-identical" true
    ({ r with Engine.Result.replayed_epochs = 0 } = r_naive);
  let replayed = r.Engine.Result.replayed_epochs in
  Alcotest.(check bool) "epochs replayed" true (replayed > 0);
  match List.rev v.Engine.Result.slo with
  | row :: _ ->
      let violations = row.Engine.Result.violation_epochs in
      Alcotest.(check bool) "some epochs violate" true (violations > 0);
      Alcotest.(check bool) "not every epoch violates" true
        (violations < row.Engine.Result.active_epochs);
      Alcotest.(check bool) "violations land on replayed epochs" true
        (violations > r.Engine.Result.epochs - replayed)
  | [] -> Alcotest.fail "no slo rows"

let test_slo_observational_and_accounting () =
  let base = Engine.Runner.run (slo_cfg ~seed:22 ~slo:[] ()) in
  let tight = Engine.Runner.run (slo_cfg ~seed:22 ~slo:[ ("p50", 0.001) ] ()) in
  let vb = Engine.Result.single base and vt = Engine.Result.single tight in
  (* Purely observational: the run itself must not notice the SLO. *)
  Alcotest.(check (float 0.0)) "completion unchanged" vb.Engine.Result.completion
    vt.Engine.Result.completion;
  Alcotest.(check bool) "latency summary unchanged" true
    (vb.Engine.Result.latency = vt.Engine.Result.latency);
  Alcotest.(check bool) "no objectives, no rows" true (vb.Engine.Result.slo = []);
  (match vt.Engine.Result.slo with
  | [ row ] ->
      Alcotest.(check string) "metric" "p50" row.Engine.Result.metric;
      Alcotest.(check bool) "impossible budget violated" true row.Engine.Result.violated;
      Alcotest.(check bool) "active epochs counted" true (row.Engine.Result.active_epochs > 0);
      Alcotest.(check int) "every active epoch violates" row.Engine.Result.active_epochs
        row.Engine.Result.violation_epochs;
      Alcotest.(check (float 1e-9)) "burn rate saturates" 1.0 row.Engine.Result.burn_rate
  | rows -> Alcotest.failf "expected 1 slo row, got %d" (List.length rows));
  let loose =
    Engine.Runner.run (slo_cfg ~seed:22 ~slo:[ ("p99", 1e9) ] ())
  in
  match (Engine.Result.single loose).Engine.Result.slo with
  | [ row ] ->
      Alcotest.(check bool) "huge budget holds" false row.Engine.Result.violated;
      Alcotest.(check int) "no violations" 0 row.Engine.Result.violation_epochs
  | rows -> Alcotest.failf "expected 1 slo row, got %d" (List.length rows)

let suite =
  [
    ( "obs.ring",
      [
        Alcotest.test_case "push/overwrite" `Quick test_ring_basic;
        Alcotest.test_case "rejects bad capacity" `Quick test_ring_rejects_bad_capacity;
        qcheck prop_ring_accounting;
      ] );
    ( "obs.stream",
      [
        Alcotest.test_case "emit stamps context" `Quick test_stream_emit;
        Alcotest.test_case "seq survives drops" `Quick test_stream_seq_survives_drops;
      ] );
    ( "obs.event",
      [
        Alcotest.test_case "class roundtrips" `Quick test_event_class_roundtrip;
        Alcotest.test_case "merge order" `Quick test_merge_order;
      ] );
    ( "obs.histogram",
      [
        Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "empty and zeros" `Quick test_histogram_empty_and_zeros;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "disabled is a no-op" `Quick test_metrics_disabled_noop;
      ] );
    ("obs.json", [ Alcotest.test_case "parse" `Quick test_json_parse ]);
    ( "obs.trace",
      [
        Alcotest.test_case "deterministic merge" `Quick test_trace_merge;
        Alcotest.test_case "duplicate label exported once" `Quick
          test_trace_duplicate_identical_exported_once;
        Alcotest.test_case "differing duplicate raises" `Quick
          test_trace_duplicate_differing_raises;
        Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
        Alcotest.test_case "rejects corrupt input" `Quick test_codec_rejects_corrupt;
        Alcotest.test_case "write_file ignores the suffix" `Quick test_write_file_ignores_suffix;
        Alcotest.test_case "start fails before installing" `Quick test_start_unwritable;
      ] );
    ( "obs.engine",
      [
        Alcotest.test_case "jobs 1 = jobs 4 trace bytes" `Slow test_trace_jobs_byte_identical;
        Alcotest.test_case "untraced run emits nothing" `Quick test_runner_untraced_emits_nothing;
        Alcotest.test_case "motivation exports every run" `Slow test_motivation_exports_every_run;
        Alcotest.test_case "summary matches registry" `Slow test_summary_matches_registry;
        Alcotest.test_case "summary timeline" `Slow test_summary_timeline;
      ] );
    ( "obs.latency",
      [
        qcheck prop_hist_merge_commutative;
        qcheck prop_hist_merge_associative;
        qcheck prop_hist_sharded_equals_whole;
        qcheck prop_hist_percentile_monotone;
        Alcotest.test_case "latency reproducible" `Slow test_latency_reproducible;
        Alcotest.test_case "slo is observational" `Slow test_slo_observational_and_accounting;
        Alcotest.test_case "slo parser" `Quick test_slo_parser;
      ] );
    ( "obs.query",
      [
        Alcotest.test_case "unknown class message" `Quick test_query_unknown_class_message;
        Alcotest.test_case "filter parsers" `Quick test_query_parsers;
        Alcotest.test_case "query matches summary" `Slow test_query_matches_summary;
        Alcotest.test_case "filters and renders" `Quick test_query_filters;
        Alcotest.test_case "top pfns order and bound" `Quick test_query_top_pfns;
        Alcotest.test_case "streaming rejects corrupt files" `Quick
          test_query_streaming_rejects_corrupt;
        Alcotest.test_case "jsonl cut at a line rejected" `Quick test_jsonl_cut_at_line_boundary;
        Alcotest.test_case "jsonl stream-id gap rejected" `Quick test_jsonl_stream_gap_rejected;
        Alcotest.test_case "jsonl duplicate label rejected" `Quick
          test_jsonl_duplicate_label_rejected;
        Alcotest.test_case "summary of file = of export" `Slow test_summary_file_equals_export;
        Alcotest.test_case "summary warns on drops" `Quick test_summary_drop_warning;
      ] );
    ( "obs.profile",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_profile_disabled_noop;
        Alcotest.test_case "spans accumulate" `Quick test_profile_spans_accumulate;
      ] );
  ]
