(* Streaming trace query engine: one pass over a trace file (via
   Codec.fold_file) in bounded memory, filtering events by
   class / domain / vcpu / node / epoch window and aggregating counts,
   per-epoch rates, top-k hot frames and a per-(node, epoch) traffic
   heatmap.

   Epoch attribution is Summary's own rule ([Summary.epoch_of]): an
   event belongs to the epoch of the last Epoch_boundary its OWN stream
   emitted before it.  Every aggregate is a pure function of the trace
   bytes, so two byte-identical traces always query identically. *)

type filter = {
  classes : Event.class_ list;  (* [] = every class *)
  domain : int option;
  vcpu : int option;
  node : int option;
  epoch_lo : int option;
  epoch_hi : int option;
}

let filter ?(classes = []) ?domain ?vcpu ?node ?epoch_lo ?epoch_hi () =
  { classes; domain; vcpu; node; epoch_lo; epoch_hi }

let all_class_names = List.map Event.class_name Event.classes

let parse_class name =
  match Event.class_of_name name with
  | Some cls -> Ok cls
  | None ->
      Error
        (Printf.sprintf "unknown event class %S; valid classes: %s" name
           (String.concat ", " all_class_names))

let parse_classes spec =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match parse_class name with Ok c -> go (c :: acc) rest | Error e -> Error e)
  in
  go []
    (List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' spec)))

let parse_epochs spec =
  let fail () =
    Error (Printf.sprintf "bad epoch window %S; expected EPOCH or LO-HI (e.g. 10-20)" spec)
  in
  match String.index_opt spec '-' with
  | None -> (
      match int_of_string_opt (String.trim spec) with
      | Some e -> Ok (e, e)
      | None -> fail ())
  | Some i -> (
      let lo = String.trim (String.sub spec 0 i) in
      let hi = String.trim (String.sub spec (i + 1) (String.length spec - i - 1)) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
      | _ -> fail ())

type class_row = {
  cls : Event.class_;
  emitted : int;  (* drop-proof stream-metadata total *)
  matched : int;  (* kept events that passed the filter *)
}

type t = {
  scanned : int;  (* kept events read from the file *)
  matched : int;
  dropped : int;  (* ring drops over all streams *)
  rows : class_row list;  (* classes with emitted or matched > 0 *)
  epoch_lo : int;  (* observed epoch range among matched events; *)
  epoch_hi : int;  (* (0, -1) when nothing matched *)
  rate_per_epoch : float;  (* matched / epochs spanned *)
  top_pfns : (int * int) list;  (* (pfn, matched count), count desc *)
  heat : ((int * int) * int) list;  (* ((epoch, node), matched), sorted *)
}

type state = {
  mutable scanned : int;
  mutable matched : int;
  mutable dropped : int;
  emitted : int array;
  matched_by_class : int array;
  mutable ep_lo : int;
  mutable ep_hi : int;
  epochs : Summary.epochs;
  pfn_counts : (int, int ref) Hashtbl.t;
  heat_counts : (int * int, int ref) Hashtbl.t;
}

let run ?(top = 10) f path =
  let wanted =
    match f.classes with
    | [] -> Array.make Event.class_count true
    | cls ->
        let a = Array.make Event.class_count false in
        List.iter (fun c -> a.(Event.class_index c) <- true) cls;
        a
  in
  let opt_ok o v = match o with None -> true | Some x -> x = v in
  let st =
    {
      scanned = 0;
      matched = 0;
      dropped = 0;
      emitted = Array.make Event.class_count 0;
      matched_by_class = Array.make Event.class_count 0;
      ep_lo = max_int;
      ep_hi = min_int;
      epochs = Summary.epochs ();
      pfn_counts = Hashtbl.create 1024;
      heat_counts = Hashtbl.create 256;
    }
  in
  let bump table key =
    match Hashtbl.find_opt table key with
    | Some r -> incr r
    | None -> Hashtbl.replace table key (ref 1)
  in
  let () =
    Codec.fold_file path ~init:() ~f:(fun () item ->
        match item with
        | Codec.Meta (_, s) ->
            st.dropped <- st.dropped + s.Codec.dropped;
            Array.iteri (fun i n -> st.emitted.(i) <- st.emitted.(i) + n) s.Codec.by_class
        | Codec.Ev m ->
            let ev = m.Event.event in
            st.scanned <- st.scanned + 1;
            let epoch = Summary.epoch_of st.epochs m in
            let i = Event.class_index ev.Event.cls in
            if
              wanted.(i)
              && opt_ok f.domain ev.Event.domain
              && opt_ok f.vcpu ev.Event.vcpu
              && opt_ok f.node ev.Event.node
              && (match f.epoch_lo with None -> true | Some lo -> epoch >= lo)
              && match f.epoch_hi with None -> true | Some hi -> epoch <= hi
            then begin
              st.matched <- st.matched + 1;
              st.matched_by_class.(i) <- st.matched_by_class.(i) + 1;
              if epoch < st.ep_lo then st.ep_lo <- epoch;
              if epoch > st.ep_hi then st.ep_hi <- epoch;
              if ev.Event.pfn >= 0 then bump st.pfn_counts ev.Event.pfn;
              if ev.Event.node >= 0 then bump st.heat_counts (epoch, ev.Event.node)
            end)
  in
  let rows =
    List.filter_map
      (fun cls ->
        let i = Event.class_index cls in
        if st.emitted.(i) = 0 && st.matched_by_class.(i) = 0 then None
        else Some { cls; emitted = st.emitted.(i); matched = st.matched_by_class.(i) })
      Event.classes
  in
  let epoch_lo, epoch_hi = if st.matched = 0 then (0, -1) else (st.ep_lo, st.ep_hi) in
  let rate_per_epoch =
    if st.matched = 0 then 0.0
    else float_of_int st.matched /. float_of_int (epoch_hi - epoch_lo + 1)
  in
  let top_pfns =
    (* Ranking "bigger count wins, ties toward the smaller pfn" is a
       total order, so the selection is independent of hash order. *)
    Hashtbl.fold (fun pfn r acc -> (pfn, !r) :: acc) st.pfn_counts []
    |> List.sort (fun (pa, ca) (pb, cb) -> if ca = cb then compare pa pb else compare cb ca)
    |> List.filteri (fun i _ -> i < Stdlib.max 1 top)
  in
  let heat =
    Hashtbl.fold (fun key r acc -> ((key, !r) :: acc)) st.heat_counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    scanned = st.scanned;
    matched = st.matched;
    dropped = st.dropped;
    rows;
    epoch_lo;
    epoch_hi;
    rate_per_epoch;
    top_pfns;
    heat;
  }

(* ---------------------------- rendering --------------------------- *)

let render_table (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "query: %d events scanned, %d matched, %d dropped by rings\n" t.scanned
       t.matched t.dropped);
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "WARNING: %d events were dropped by full rings — matched counts \
                       undercount the true activity\n"
         t.dropped);
  if t.matched > 0 then
    Buffer.add_string buf
      (Printf.sprintf "epochs %d..%d, %.3f matched events per epoch\n" t.epoch_lo t.epoch_hi
         t.rate_per_epoch);
  Buffer.add_string buf (Printf.sprintf "\n%-20s %10s %10s\n" "class" "emitted" "matched");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-20s %10d %10d\n" (Event.class_name r.cls) r.emitted r.matched))
    t.rows;
  if t.top_pfns <> [] then begin
    Buffer.add_string buf (Printf.sprintf "\n%-12s %10s\n" "pfn" "events");
    List.iter
      (fun (pfn, n) -> Buffer.add_string buf (Printf.sprintf "%-12d %10d\n" pfn n))
      t.top_pfns
  end;
  Buffer.contents buf

let render_jsonl (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"query\":\"xen-numa\",\"scanned\":%d,\"matched\":%d,\"dropped\":%d,\"epoch_lo\":%d,\"epoch_hi\":%d,\"rate_per_epoch\":%.6f}\n"
       t.scanned t.matched t.dropped t.epoch_lo t.epoch_hi t.rate_per_epoch);
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "{\"class\":\"%s\",\"emitted\":%d,\"matched\":%d}\n"
           (Event.class_name r.cls) r.emitted r.matched))
    t.rows;
  List.iter
    (fun (pfn, n) ->
      Buffer.add_string buf (Printf.sprintf "{\"pfn\":%d,\"events\":%d}\n" pfn n))
    t.top_pfns;
  Buffer.contents buf

(* Per-(node, epoch) heatmap as CSV: one row per epoch that matched,
   one column per node seen, zero-filled — ready for pcolormesh-style
   plotting. *)
let heatmap_csv (t : t) =
  let nodes =
    List.sort_uniq compare (List.map (fun (((_, node), _) : (int * int) * int) -> node) t.heat)
  in
  let epochs = List.sort_uniq compare (List.map (fun ((epoch, _), _) -> epoch) t.heat) in
  let table = Hashtbl.create (List.length t.heat) in
  List.iter (fun (key, n) -> Hashtbl.replace table key n) t.heat;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "epoch";
  List.iter (fun node -> Buffer.add_string buf (Printf.sprintf ",node%d" node)) nodes;
  Buffer.add_char buf '\n';
  List.iter
    (fun epoch ->
      Buffer.add_string buf (string_of_int epoch);
      List.iter
        (fun node ->
          let n = match Hashtbl.find_opt table (epoch, node) with Some n -> n | None -> 0 in
          Buffer.add_string buf (Printf.sprintf ",%d" n))
        nodes;
      Buffer.add_char buf '\n')
    epochs;
  Buffer.contents buf
