(* Wire formats of a merged trace: self-describing JSONL (one object
   per line, greppable, diff-friendly) and a compact fixed-record
   binary format.  Both carry the same data and both round-trip; the
   one reader, [fold_file], auto-detects by magic.  Output is a pure
   function of the export value, so byte-identical exports mean
   identical traces. *)

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
let binary_magic = "XNUMATR1"

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

let write_binary buf e =
  Buffer.add_string buf binary_magic;
  Buffer.add_int32_be buf (Int32.of_int (Array.length e.streams));
  Array.iter
    (fun (s : stream_info) ->
      Buffer.add_int32_be buf (Int32.of_int (String.length s.label));
      Buffer.add_string buf s.label;
      Buffer.add_int64_be buf (Int64.of_int s.emitted);
      Buffer.add_int64_be buf (Int64.of_int s.dropped);
      Buffer.add_int32_be buf (Int32.of_int (Array.length s.by_class));
      Array.iter (fun n -> Buffer.add_int64_be buf (Int64.of_int n)) s.by_class)
    e.streams;
  Buffer.add_int64_be buf (Int64.of_int (List.length e.events));
  List.iter
    (fun (m : Event.merged) ->
      let ev = m.Event.event in
      Buffer.add_int32_be buf (Int32.of_int m.Event.stream);
      Buffer.add_int64_be buf (Int64.of_int m.Event.seq);
      Buffer.add_int64_be buf (Int64.bits_of_float ev.Event.time);
      Buffer.add_uint8 buf (Event.class_index ev.Event.cls);
      Buffer.add_int32_be buf (Int32.of_int ev.Event.domain);
      Buffer.add_int32_be buf (Int32.of_int ev.Event.vcpu);
      Buffer.add_int64_be buf (Int64.of_int ev.Event.pfn);
      Buffer.add_int32_be buf (Int32.of_int ev.Event.node);
      Buffer.add_int64_be buf (Int64.of_int ev.Event.arg))
    e.events

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
type item =
  | Header of { streams : int; events : int }
  | Meta of int * stream_info
  | Ev of Event.merged

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
      Meta
        ( id,
          {
            label = string_field "label" obj ~line;
            emitted = int_field "emitted" obj ~line;
            dropped = int_field "dropped" obj ~line;
            by_class;
          } )
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
          Ev
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
            }
      | None ->
          (* The header line; anything else without stream/class
             markers is unknown. *)
          if Json.member "trace" obj = None then
            corrupt "line %d: neither header, stream nor event" line
          else
            Header { streams = int_field "streams" obj ~line; events = int_field "events" obj ~line })

(* A JSONL trace is checked as it streams.  A file cut at a line
   boundary still parses line by line: only the header's promised
   counts expose the missing tail.  Stream records must run 0, 1, 2, ...
   ahead of every event, as the writer emits them and as the binary
   layout fixes them, so a consumer can index streams as they arrive
   and a skipped id is caught at the record after the gap.  [count]
   tallies the records of one pass; [check] compares them with the
   header at end of input. *)
type tally = {
  mutable header : (int * int) option;
  mutable meta : int;
  mutable ev : int;
}

let tally () = { header = None; meta = 0; ev = 0 }

let count t ~line = function
  | Header { streams; events } -> t.header <- Some (streams, events)
  | Meta (id, _) ->
      if id <> t.meta then
        corrupt "line %d: stream %d has no metadata record (found stream %d's)" line t.meta id;
      if t.ev > 0 then corrupt "line %d: stream record after the first event" line;
      t.meta <- t.meta + 1
  | Ev _ -> t.ev <- t.ev + 1

let check t =
  match t.header with
  | None -> corrupt "missing header line"
  | Some (streams, events) ->
      if streams <> t.meta || events <> t.ev then
        corrupt "truncated: header promises %d streams and %d events, read %d and %d" streams
          events t.meta t.ev

(* Channel-based fold over a trace file in bounded memory: one line (or
   one fixed-size binary record) is resident at a time, so every reader
   can stream a trace far larger than RAM.  Truncation or malformed
   input raises [Corrupt] — a short file is an error, never a silently
   shorter trace. *)

let input_exact ic buf n =
  let at = pos_in ic in
  try really_input ic buf 0 n
  with End_of_file -> corrupt "binary trace truncated at offset %d" at

let ch_i32 ic buf =
  input_exact ic buf 4;
  Int32.to_int (Bytes.get_int32_be buf 0)

let ch_i64 ic buf =
  input_exact ic buf 8;
  Bytes.get_int64_be buf 0

let ch_u8 ic buf =
  input_exact ic buf 1;
  Char.code (Bytes.get buf 0)

(* The length comes from the file: checked against the bytes left, a
   corrupt one neither escapes as Invalid_argument nor allocates past
   the end of the file. *)
let ch_string ic n =
  let at = pos_in ic in
  if n < 0 || n > in_channel_length ic - at then
    corrupt "bad string length %d at offset %d" n at;
  try really_input_string ic n
  with End_of_file -> corrupt "binary trace truncated at offset %d" at

let fold_binary_channel ic ~init ~f =
  (* The caller has already consumed the magic. *)
  let buf = Bytes.create 8 in
  let nstreams = ch_i32 ic buf in
  let acc = ref init in
  for i = 0 to nstreams - 1 do
    let label = ch_string ic (ch_i32 ic buf) in
    let emitted = Int64.to_int (ch_i64 ic buf) in
    let dropped = Int64.to_int (ch_i64 ic buf) in
    let nclasses = ch_i32 ic buf in
    let by_class = Array.make Event.class_count 0 in
    for k = 0 to nclasses - 1 do
      let n = Int64.to_int (ch_i64 ic buf) in
      if k < Event.class_count then by_class.(k) <- n
    done;
    acc := f !acc (Meta (i, { label; emitted; dropped; by_class }))
  done;
  let nevents = Int64.to_int (ch_i64 ic buf) in
  for _ = 1 to nevents do
    let stream = ch_i32 ic buf in
    let seq = Int64.to_int (ch_i64 ic buf) in
    let time = Int64.float_of_bits (ch_i64 ic buf) in
    let cls =
      let idx = ch_u8 ic buf in
      match Event.class_of_index idx with
      | Some cls -> cls
      | None -> corrupt "unknown event class index %d" idx
    in
    let domain = ch_i32 ic buf in
    let vcpu = ch_i32 ic buf in
    let pfn = Int64.to_int (ch_i64 ic buf) in
    let node = ch_i32 ic buf in
    let arg = Int64.to_int (ch_i64 ic buf) in
    acc :=
      f !acc (Ev { Event.stream; seq; event = Event.make ~time cls ~domain ~vcpu ~pfn ~node ~arg })
  done;
  (match input_char ic with
  | _ -> corrupt "trailing bytes after binary trace"
  | exception End_of_file -> ());
  !acc

let fold_jsonl_channel ic ~init ~f =
  let t = tally () in
  let rec go line acc =
    match input_line ic with
    | exception End_of_file ->
        check t;
        acc
    | l when String.trim l = "" -> go line acc
    | l ->
        let item = parse_jsonl_line ~line l in
        count t ~line item;
        go (line + 1) (f acc item)
  in
  go 1 init

let fold_file path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let magic_len = String.length binary_magic in
      let head =
        if in_channel_length ic >= magic_len then really_input_string ic magic_len else ""
      in
      if head = binary_magic then fold_binary_channel ic ~init ~f
      else begin
        seek_in ic 0;
        fold_jsonl_channel ic ~init ~f
      end)
