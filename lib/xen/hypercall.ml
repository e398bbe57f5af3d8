type id =
  | Set_numa_policy
  | Page_ops
  | Carrefour_read_metrics

let all = [ Set_numa_policy; Page_ops; Carrefour_read_metrics ]

let nr = function
  | Set_numa_policy -> 48
  | Page_ops -> 49
  | Carrefour_read_metrics -> 50

let name = function
  | Set_numa_policy -> "set_numa_policy"
  | Page_ops -> "page_ops"
  | Carrefour_read_metrics -> "carrefour_read_metrics"

type stats = {
  mutable calls : int;
  mutable time : float;
}

let index = function Set_numa_policy -> 0 | Page_ops -> 1 | Carrefour_read_metrics -> 2

type table = stats array

let create_table () = Array.init (List.length all) (fun _ -> { calls = 0; time = 0.0 })

let record ?obs ?(domain = -1) t id ~time =
  let s = t.(index id) in
  s.calls <- s.calls + 1;
  s.time <- s.time +. time;
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

let stats t id = t.(index id)

let total_calls t = Array.fold_left (fun acc s -> acc + s.calls) 0 t
