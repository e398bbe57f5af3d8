(* One logical trace stream: the bounded event ring of a single
   engine run (one Engine.Pool task), plus per-class emission counters
   that survive ring overwrites.  A stream is single-writer — the
   worker executing the run — so it needs no lock; determinism across
   worker counts comes from each run owning its stream and the merge
   ordering streams by label. *)

type t = {
  label : string;
  ring : Event.t Ring.t;
  by_class : int array;  (* emitted per class, drop-proof *)
  mutable now : float;  (* current simulated time, set by the runner *)
}

let dummy_event = Event.make ~time:0.0 Event.Epoch_boundary

let create ?(capacity = 4096) ~label () =
  {
    label;
    ring = Ring.create ~capacity ~dummy:dummy_event;
    by_class = Array.make Event.class_count 0;
    now = 0.0;
  }

let label t = t.label
let set_time t now = t.now <- now

let emit ?domain ?vcpu ?pfn ?node ?arg t cls =
  let e = Event.make ?domain ?vcpu ?pfn ?node ?arg ~time:t.now cls in
  Ring.push t.ring e;
  t.by_class.(Event.class_index cls) <- t.by_class.(Event.class_index cls) + 1

let emitted t = Ring.emitted t.ring
let dropped t = Ring.dropped t.ring
let emitted_by_class t = Array.copy t.by_class

(* Kept events with their in-stream sequence numbers.  The ring holds
   the most recent [kept] of [emitted] events, so the first kept event
   has sequence number [emitted - kept]. *)
let events t =
  let first_seq = Ring.emitted t.ring - Ring.length t.ring in
  List.mapi (fun i e -> (first_seq + i, e)) (Ring.to_list t.ring)
