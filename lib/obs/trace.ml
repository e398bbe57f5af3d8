(* A trace session: the registry of per-run streams behind one
   xentrace-style capture.  Streams register under a stable label (a
   pure function of the run's configuration and seed); the merge sorts
   streams by label and events by (time, stream, seq), so the exported
   bytes do not depend on which pool worker simulated which run, nor
   on how runs were interleaved.

   Duplicate labels can only come from two workers racing to simulate
   the same memoised grid cell (Runs.run's first-write-wins cache);
   both runs are bit-identical, so the second registrant gets a
   detached stream whose events are simply not exported. *)

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable streams : Stream.t list;  (* registered, newest first *)
  labels : (string, unit) Hashtbl.t;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; mutex = Mutex.create (); streams = []; labels = Hashtbl.create 64 }

let stream t ~label =
  Mutex.protect t.mutex (fun () ->
      let s = Stream.create ~capacity:t.capacity ~label () in
      if not (Hashtbl.mem t.labels label) then begin
        Hashtbl.replace t.labels label ();
        t.streams <- s :: t.streams
      end;
      s)

let streams t =
  Mutex.protect t.mutex (fun () ->
      List.sort (fun a b -> compare (Stream.label a) (Stream.label b)) t.streams)

let stream_count t = Mutex.protect t.mutex (fun () -> List.length t.streams)

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

let render_binary t =
  let buf = Buffer.create 65536 in
  Codec.write_binary buf (export t);
  Buffer.contents buf

let write_file t file =
  let data = if Filename.check_suffix file ".bin" then render_binary t else render_jsonl t in
  let oc = open_out_bin file in
  output_string oc data;
  close_out oc

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
