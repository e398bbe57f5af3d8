type id =
  | Set_numa_policy
  | Page_ops
  | Carrefour_read_metrics

let nr = function
  | Set_numa_policy -> 48
  | Page_ops -> 49
  | Carrefour_read_metrics -> 50

let name = function
  | Set_numa_policy -> "set_numa_policy"
  | Page_ops -> "page_ops"
  | Carrefour_read_metrics -> "carrefour_read_metrics"

let record ?obs ?(domain = -1) id ~time =
  (match obs with
  | None -> ()
  | Some stream ->
      Obs.Stream.emit ~domain ~arg:(nr id) stream Obs.Event.Hypercall_entry;
      (* Exit carries the in-hypervisor time in nanoseconds so the
         summariser can histogram it without parsing floats. *)
      Obs.Stream.emit ~domain
        ~arg:(int_of_float (time *. 1e9))
        stream Obs.Event.Hypercall_exit);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr (Printf.sprintf "xen.hypercall.%s.calls" (name id));
    Obs.Metrics.observe (Printf.sprintf "xen.hypercall.%s.time_s" (name id)) time
  end
