(* Wire format of a merged trace: self-describing JSONL (one object
   per line, greppable, diff-friendly).  The writer and the one reader,
   [fold_file], round-trip.  Output is a pure function of the export
   value, so byte-identical exports mean identical traces. *)

type stream_info = {
  label : string;
  emitted : int;
  dropped : int;
  by_class : int array;  (* per Event.class_index *)
}

type export = {
  streams : stream_info array;  (* index = stream id, sorted by label *)
  events : Event.merged list;  (* sorted by Event.compare_merged *)
}

let jsonl_magic = "{\"trace\":\"xen-numa\""

(* ---------------------------- writing ---------------------------- *)

let add_jsonl buf e =
  List.iteri
    (fun i (s : stream_info) ->
      let classes =
        List.filter_map
          (fun cls ->
            let n = s.by_class.(Event.class_index cls) in
            if n = 0 then None
            else Some (Printf.sprintf "\"%s\":%d" (Event.class_name cls) n))
          Event.classes
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"stream\":%d,\"label\":\"%s\",\"emitted\":%d,\"dropped\":%d,\"by_class\":{%s}}\n"
           i (Json.escape s.label) s.emitted s.dropped (String.concat "," classes)))
    (Array.to_list e.streams);
  List.iter
    (fun (m : Event.merged) ->
      let ev = m.Event.event in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"t\":%.6f,\"w\":%d,\"seq\":%d,\"class\":\"%s\",\"dom\":%d,\"vcpu\":%d,\"pfn\":%d,\"node\":%d,\"arg\":%d}\n"
           ev.Event.time m.Event.stream m.Event.seq (Event.class_name ev.Event.cls) ev.Event.domain
           ev.Event.vcpu ev.Event.pfn ev.Event.node ev.Event.arg))
    e.events

let write_jsonl buf e =
  Buffer.add_string buf
    (Printf.sprintf "%s,\"version\":1,\"streams\":%d,\"events\":%d}\n" jsonl_magic
       (Array.length e.streams) (List.length e.events));
  add_jsonl buf e

(* ---------------------------- reading ---------------------------- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let get field obj ~line =
  match Json.member field obj with
  | Some v -> v
  | None -> corrupt "line %d: missing field %S" line field

let int_field field obj ~line =
  match Json.to_int (get field obj ~line) with
  | Some n -> n
  | None -> corrupt "line %d: field %S is not a number" line field

let string_field field obj ~line =
  match Json.to_string (get field obj ~line) with
  | Some s -> s
  | None -> corrupt "line %d: field %S is not a string" line field

(* One streamed record of a trace file, in file order. *)
type item = Meta of int * stream_info | Ev of Event.merged

(* A parsed line: the header, which only the fold reads, or an item. *)
type line = Header of { streams : int; events : int } | Item of item

let parse_jsonl_line ~line l =
  let obj =
    match Json.of_string_opt l with
    | Some v -> v
    | None -> corrupt "line %d: not valid JSON" line
  in
  match Json.member "stream" obj with
  | Some _ ->
      let id = int_field "stream" obj ~line in
      let by_class = Array.make Event.class_count 0 in
      (match Json.member "by_class" obj with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (name, v) ->
              match (Event.class_of_name name, Json.to_int v) with
              | Some cls, Some n -> by_class.(Event.class_index cls) <- n
              | _ -> corrupt "line %d: bad by_class entry %S" line name)
            fields
      | _ -> corrupt "line %d: stream record without by_class" line);
      Item
        (Meta
           ( id,
             {
               label = string_field "label" obj ~line;
               emitted = int_field "emitted" obj ~line;
               dropped = int_field "dropped" obj ~line;
               by_class;
             } ))
  | None -> (
      match Json.member "class" obj with
      | Some _ ->
          let cls_name = string_field "class" obj ~line in
          let cls =
            match Event.class_of_name cls_name with
            | Some c -> c
            | None -> corrupt "line %d: unknown event class %S" line cls_name
          in
          let time =
            match Json.to_float (get "t" obj ~line) with
            | Some f -> f
            | None -> corrupt "line %d: field \"t\" is not a number" line
          in
          Item
            (Ev
               {
                 Event.stream = int_field "w" obj ~line;
                 seq = int_field "seq" obj ~line;
                 event =
                   Event.make ~time cls
                     ~domain:(int_field "dom" obj ~line)
                     ~vcpu:(int_field "vcpu" obj ~line)
                     ~pfn:(int_field "pfn" obj ~line)
                     ~node:(int_field "node" obj ~line)
                     ~arg:(int_field "arg" obj ~line);
               })
      | None ->
          (* The header line; anything else without stream/class
             markers is unknown. *)
          if Json.member "trace" obj = None then
            corrupt "line %d: neither header, stream nor event" line
          else
            Header { streams = int_field "streams" obj ~line; events = int_field "events" obj ~line })

(* A trace is checked as it streams.  A line cut in the middle is not
   valid JSON; a file cut at a line boundary still parses line by line,
   and only the header's promised counts expose the missing tail.
   Stream records must run 0, 1, 2, ... ahead of every event, as the
   writer emits them, so a consumer can index streams as they arrive
   and a skipped id is caught at the record after the gap.  Their
   labels must be strictly ascending, as the export sorts them, one
   stream per run.  [count] tallies the items of one pass; [check]
   compares them with the header at end of input. *)
type tally = {
  mutable header : (int * int) option;
  mutable meta : int;
  mutable last_label : string;  (* the previous stream record's *)
  mutable ev : int;
}

let tally () = { header = None; meta = 0; last_label = ""; ev = 0 }

let count t ~line = function
  | Meta (id, info) ->
      if id <> t.meta then
        corrupt "line %d: stream %d has no metadata record (found stream %d's)" line t.meta id;
      if t.ev > 0 then corrupt "line %d: stream record after the first event" line;
      if id > 0 && String.compare info.label t.last_label <= 0 then
        corrupt "line %d: stream label %S does not sort after the previous stream's %S" line
          info.label t.last_label;
      t.last_label <- info.label;
      t.meta <- t.meta + 1
  | Ev _ -> t.ev <- t.ev + 1

let check t =
  match t.header with
  | None -> corrupt "missing header line"
  | Some (streams, events) ->
      if streams <> t.meta || events <> t.ev then
        corrupt "truncated: header promises %d streams and %d events, read %d and %d" streams
          events t.meta t.ev

(* One line is resident at a time, so every reader can stream a trace
   far larger than RAM. *)
let fold_file path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let t = tally () in
      let rec go line acc =
        match input_line ic with
        | exception End_of_file ->
            check t;
            acc
        | l when String.trim l = "" -> go line acc
        | l -> (
            match parse_jsonl_line ~line l with
            | Header { streams; events } ->
                t.header <- Some (streams, events);
                go (line + 1) acc
            | Item item ->
                count t ~line item;
                go (line + 1) (f acc item))
      in
      go 1 init)
