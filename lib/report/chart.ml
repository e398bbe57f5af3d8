let bar_of ~width ~max_value value =
  if max_value <= 0.0 then ""
  else begin
    let n = int_of_float (Float.round (Float.abs value /. max_value *. float_of_int width)) in
    String.make (min n width) (if value >= 0.0 then '#' else '-')
  end

let render ~title ?(unit_label = "") ?(width = 50) data =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length title) '=');
  Buffer.add_char buf '\n';
  let label_width = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 data in
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0.0 data in
  List.iter
    (fun (label, value) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s %8.2f%s |%s\n" label_width label value unit_label
           (bar_of ~width ~max_value value)))
    data;
  Buffer.contents buf

let print ~title ?unit_label ?width data = print_string (render ~title ?unit_label ?width data)

let render_groups ~title ~series ?(width = 40) data =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length title) '=');
  Buffer.add_char buf '\n';
  let label_width = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 data in
  let series_width = List.fold_left (fun acc s -> max acc (String.length s)) 0 series in
  let max_value =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left (fun acc v -> Float.max acc (Float.abs v)) acc vs)
      0.0 data
  in
  List.iter
    (fun (label, values) ->
      if List.length values <> List.length series then
        invalid_arg "Chart.render_groups: series/values length mismatch";
      List.iteri
        (fun i value ->
          let series_name = List.nth series i in
          let row_label = if i = 0 then label else "" in
          Buffer.add_string buf
            (Printf.sprintf "%-*s %-*s %8.2f |%s\n" label_width row_label series_width
               series_name value
               (bar_of ~width ~max_value value)))
        values;
      Buffer.add_char buf '\n')
    data;
  Buffer.contents buf
