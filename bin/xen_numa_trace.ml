(* xen-numa-trace: xenalyze-style summariser, checker and query tool
   for the JSONL trace files produced by xen-numa-sim --trace.
   Every subcommand reads the file in one bounded-memory streaming
   pass (Obs.Codec.fold_file). *)

open Cmdliner

let die msg =
  prerr_endline ("xen-numa-trace: " ^ msg);
  exit 1

(* Run one streaming pass [read path]; an unreadable or corrupt file
   is a one-line error and exit 1. *)
let reading read path =
  match read path with
  | exception Sys_error msg -> die msg
  | exception Obs.Codec.Corrupt msg -> die (Printf.sprintf "%s: corrupt trace: %s" path msg)
  | result -> result

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file to read.")

let timeline_arg =
  Arg.(value & opt int 24
       & info [ "timeline" ] ~docv:"ROWS" ~doc:"Epoch-timeline rows to print (default 24).")

let summary rows path =
  print_string (Obs.Summary.render ~timeline_rows:rows (reading Obs.Summary.of_file path))

let summary_cmd =
  let doc = "Summarise a trace: per-class counts, inter-arrival stats, epoch timeline" in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const summary $ timeline_arg $ file_arg)

(* Structural validation beyond what the codec already rejects: the
   ring accounting invariant per stream and the merge-order contract.
   One streaming pass keeps per-stream kept counts and the previous
   event; the codec delivers every stream record before the first
   event, so an event's stream id is checked on arrival. *)
let check path =
  let streams = ref [] and nstreams = ref 0 and kept = Hashtbl.create 16 in
  let events = ref 0 and prev = ref None and disorder = ref 0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let visit () = function
    | Obs.Codec.Meta (_, s) ->
        streams := s :: !streams;
        incr nstreams
    | Obs.Codec.Ev m ->
        let w = m.Obs.Event.stream in
        incr events;
        if w < 0 || w >= !nstreams then fail "event references unknown stream %d" w
        else Hashtbl.replace kept w (1 + Option.value ~default:0 (Hashtbl.find_opt kept w));
        (match !prev with
        | Some p when Obs.Event.compare_merged p m > 0 -> incr disorder
        | _ -> ());
        prev := Some m
  in
  reading (fun path -> Obs.Codec.fold_file path ~init:() ~f:visit) path;
  let streams = Array.of_list (List.rev !streams) in
  Array.iteri
    (fun i (s : Obs.Codec.stream_info) ->
      let kept = Option.value ~default:0 (Hashtbl.find_opt kept i) in
      if kept + s.Obs.Codec.dropped <> s.Obs.Codec.emitted then
        fail "stream %d (%s): kept %d + dropped %d <> emitted %d" i s.Obs.Codec.label kept
          s.Obs.Codec.dropped s.Obs.Codec.emitted;
      let by_class_total = Array.fold_left ( + ) 0 s.Obs.Codec.by_class in
      if by_class_total <> s.Obs.Codec.emitted then
        fail "stream %d (%s): by-class totals %d <> emitted %d" i s.Obs.Codec.label
          by_class_total s.Obs.Codec.emitted)
    streams;
  for _ = 1 to !disorder do
    fail "events out of merge order"
  done;
  match !failures with
  | [] ->
      Printf.printf "ok: %d streams, %d events kept, invariants hold\n" (Array.length streams)
        !events;
      (* Drops do not break any invariant (the accounting identity
         includes them) but they mean the kept counts undercount. *)
      let dropped = Array.fold_left (fun acc s -> acc + s.Obs.Codec.dropped) 0 streams in
      if dropped > 0 then
        Printf.printf
          "note: %d events were dropped by full rings — kept counts undercount; raise \
           --trace-cap for a complete capture\n"
          dropped
  | msgs ->
      List.iter (fun m -> prerr_endline ("xen-numa-trace: " ^ m)) (List.rev msgs);
      exit 1

let check_cmd =
  let doc = "Validate a trace file's accounting and ordering invariants" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check $ file_arg)

(* ------------------------------------------------------------------ *)
(* query: streaming filter + aggregation                               *)
(* ------------------------------------------------------------------ *)

let classes_arg =
  Arg.(value & opt (some string) None
       & info [ "class" ] ~docv:"CLASSES"
           ~doc:"Comma-separated event classes to keep (e.g. \
                 $(b,page_fault,migrate_start)).  An unknown name lists every \
                 valid class.  Default: all classes.")

let dom_arg =
  Arg.(value & opt (some int) None
       & info [ "dom" ] ~docv:"ID" ~doc:"Keep events of this domain only.")

let vcpu_arg =
  Arg.(value & opt (some int) None
       & info [ "vcpu" ] ~docv:"ID" ~doc:"Keep events of this vCPU only.")

let node_arg =
  Arg.(value & opt (some int) None
       & info [ "node" ] ~docv:"ID" ~doc:"Keep events tagged with this NUMA node only.")

let epochs_arg =
  Arg.(value & opt (some string) None
       & info [ "epochs" ] ~docv:"WINDOW"
           ~doc:"Epoch window: a single $(i,EPOCH) or an inclusive $(i,LO-HI) \
                 range (e.g. $(b,10-20)).")

let top_arg =
  Arg.(value & opt int 10
       & info [ "top" ] ~docv:"K" ~doc:"Hot-frame list length (default 10).")

let format_arg =
  Arg.(value & opt (enum [ ("table", `Table); ("jsonl", `Jsonl) ]) `Table
       & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,table) or $(b,jsonl).")

let heatmap_arg =
  Arg.(value & opt (some string) None
       & info [ "heatmap" ] ~docv:"FILE"
           ~doc:"Also write a per-(epoch, node) matched-event heatmap to $(docv) as CSV.")

let query classes dom vcpu node epochs top format heatmap path =
  if top < 1 then die "--top must be positive";
  let classes =
    match classes with
    | None -> []
    | Some spec -> (
        match Obs.Query.parse_classes spec with Ok cs -> cs | Error msg -> die msg)
  in
  let epoch_lo, epoch_hi =
    match epochs with
    | None -> (None, None)
    | Some spec -> (
        match Obs.Query.parse_epochs spec with
        | Ok (lo, hi) -> (Some lo, Some hi)
        | Error msg -> die msg)
  in
  let f =
    Obs.Query.filter ~classes ?domain:dom ?vcpu ?node ?epoch_lo ?epoch_hi ()
  in
  let result = reading (Obs.Query.run ~top f) path in
  (match format with
  | `Table -> print_string (Obs.Query.render_table result)
  | `Jsonl -> print_string (Obs.Query.render_jsonl result));
  match heatmap with
  | None -> ()
  | Some file -> (
      match open_out file with
      | exception Sys_error msg -> die msg
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Obs.Query.heatmap_csv result));
          (* stderr: keeps stdout parseable (and byte-identical across
             captures that differ only in the CSV destination). *)
          Printf.eprintf "heatmap written to %s\n" file)

let query_cmd =
  let doc =
    "Filter and aggregate a trace in one bounded-memory streaming pass \
     (count per class, rate per epoch, top-k hot frames, optional heatmap CSV)"
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const query $ classes_arg $ dom_arg $ vcpu_arg $ node_arg $ epochs_arg $ top_arg
          $ format_arg $ heatmap_arg $ file_arg)

let main =
  let doc = "Summarise xen-numa-sim event traces" in
  Cmd.group (Cmd.info "xen-numa-trace" ~doc) [ summary_cmd; check_cmd; query_cmd ]

let () = exit (Cmd.eval main)
