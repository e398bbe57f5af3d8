(** Observability for the hypervisor simulation: xentrace-style event
    tracing ({!Trace}, {!Stream}, {!Event}, {!Ring}) and a metrics
    registry ({!Metrics}), with the JSONL trace format ({!Codec}) and an
    xenalyze-style summariser ({!Summary}). *)

module Event = Event
module Ring = Ring
module Stream = Stream
module Trace = Trace
module Metrics = Metrics
module Summary = Summary
module Codec = Codec
module Json = Json
module Profile = Profile
module Query = Query

val enabled : unit -> bool
(** True while a trace session is installed or metrics collection is
    on.  Instrumentation sites branch on this (or on their cached
    stream option) and are no-ops otherwise. *)
