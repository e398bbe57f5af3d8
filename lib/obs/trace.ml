(* A trace session: the registry of per-run streams behind one
   xentrace-style capture.  Streams register under a stable label (the
   run's identity, Engine.Config.label); the merge sorts streams by
   label and events by (time, stream, seq), so the exported bytes do
   not depend on which pool worker simulated which run, nor on how
   runs were interleaved.

   Every stream registers.  One label can be registered more than
   once: two grid cells can be the same run (a grid's off column and
   another grid's baseline), and two workers can race on one memoised
   cell (Runs.run's first-write-wins cache).  A label names the whole
   run, so such streams must be identical; the export keeps one and
   fails on any difference rather than pick one. *)

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable streams : Stream.t list;  (* registered, newest first *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; mutex = Mutex.create (); streams = [] }

let stream t ~label =
  let s = Stream.create ~capacity:t.capacity ~label () in
  Mutex.protect t.mutex (fun () -> t.streams <- s :: t.streams);
  s

let same_run a b =
  Stream.emitted a = Stream.emitted b
  && Stream.dropped a = Stream.dropped b
  && Stream.emitted_by_class a = Stream.emitted_by_class b
  && Stream.events a = Stream.events b

(* The registered streams sorted by label, one per label. *)
let streams t =
  let sorted =
    Mutex.protect t.mutex (fun () ->
        List.sort (fun a b -> String.compare (Stream.label a) (Stream.label b)) t.streams)
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when Stream.label a = Stream.label b ->
        if not (same_run a b) then
          Printf.ksprintf invalid_arg "Trace: two runs labelled %S emitted different events"
            (Stream.label a);
        dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let stream_count t = List.length (streams t)

(* ------------------------------------------------------------------ *)
(* Global session                                                      *)
(* ------------------------------------------------------------------ *)

let current_session : t option Atomic.t = Atomic.make None

let install t = Atomic.set current_session (Some t)
let uninstall () = Atomic.set current_session None
let current () = Atomic.get current_session
let installed () = Atomic.get current_session <> None

(* ------------------------------------------------------------------ *)
(* Merge and export                                                    *)
(* ------------------------------------------------------------------ *)

let export t =
  let sorted = streams t in
  let infos =
    Array.of_list
      (List.map
         (fun s ->
           {
             Codec.label = Stream.label s;
             emitted = Stream.emitted s;
             dropped = Stream.dropped s;
             by_class = Stream.emitted_by_class s;
           })
         sorted)
  in
  let events =
    List.concat
      (List.mapi
         (fun id s ->
           List.map (fun (seq, e) -> { Event.stream = id; seq; event = e }) (Stream.events s))
         sorted)
  in
  { Codec.streams = infos; events = List.sort Event.compare_merged events }

let render_jsonl t =
  let buf = Buffer.create 65536 in
  Codec.write_jsonl buf (export t);
  Buffer.contents buf

let write_file t file =
  let data = render_jsonl t in
  let oc = open_out_bin file in
  output_string oc data;
  close_out oc

let start ~capacity file =
  let t = create ~capacity () in
  close_out (open_out_bin file);
  install t;
  t

(* Mirror the per-class emission totals of the registered streams into
   the metrics registry: `summary` over the exported file and the
   registry then report the same counts. *)
let commit_metrics t =
  if Metrics.enabled () then begin
    let sorted = streams t in
    Metrics.incr ~by:(List.length sorted) "obs.trace.streams";
    List.iter
      (fun s ->
        Metrics.incr ~by:(Stream.emitted s) "obs.trace.emitted";
        Metrics.incr ~by:(Stream.dropped s) "obs.trace.dropped";
        let by_class = Stream.emitted_by_class s in
        List.iter
          (fun cls ->
            let n = by_class.(Event.class_index cls) in
            if n > 0 then Metrics.incr ~by:n ("obs.trace.events." ^ Event.class_name cls))
          Event.classes)
      sorted
  end
