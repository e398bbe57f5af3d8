type window = {
  from_epoch : int;
  until_epoch : int option;
}

let always = { from_epoch = 0; until_epoch = None }

type site =
  | Alloc_flaky of float
  | Node_offline of Numa.Topology.node
  | Migrate_enomem of float
  | Batch_loss of float
  | Op_drop of float
  | Hypercall_flaky of float
  | Vcpu_stall of float
  | Ecc_ce of float
  | Ecc_ue of float
  | Node_fail of float

type spec = { site : site; window : window }

type t = spec list

let empty = []

let is_empty = List.is_empty

let spec ?(from_epoch = 0) ?until_epoch site =
  { site; window = { from_epoch; until_epoch } }

let site_name = function
  | Alloc_flaky _ -> "alloc"
  | Node_offline _ -> "node-off"
  | Migrate_enomem _ -> "migrate"
  | Batch_loss _ -> "batch-loss"
  | Op_drop _ -> "op-drop"
  | Hypercall_flaky _ -> "hypercall"
  | Vcpu_stall _ -> "stall"
  | Ecc_ce _ -> "ecc-ce"
  | Ecc_ue _ -> "ecc-ue"
  | Node_fail _ -> "node_fail"

let valid_site_names =
  [ "alloc"; "node-off"; "migrate"; "batch-loss"; "op-drop"; "hypercall";
    "stall"; "ecc-ce"; "ecc-ue"; "node_fail" ]

let site_rate = function
  | Alloc_flaky r | Migrate_enomem r | Batch_loss r | Op_drop r
  | Hypercall_flaky r | Vcpu_stall r
  | Ecc_ce r | Ecc_ue r | Node_fail r -> Some r
  | Node_offline _ -> None

let validate_spec s =
  (match s.site with
  | Node_offline node when node < 0 ->
      Error (Printf.sprintf "node-off: negative node %d" node)
  | site -> (
      match site_rate site with
      | Some r when not (r >= 0.0 && r <= 1.0) ->
          Error (Printf.sprintf "%s: rate %g outside [0, 1]" (site_name site) r)
      | Some _ | None -> Ok ()))
  |> function
  | Error _ as e -> e
  | Ok () ->
      if s.window.from_epoch < 0 then Error (site_name s.site ^ ": window starts before epoch 0")
      else begin
        match s.window.until_epoch with
        | Some u when u <= s.window.from_epoch ->
            Error (site_name s.site ^ ": empty window")
        | Some _ | None -> Ok ()
      end

let validate t =
  let rec go = function
    | [] -> Ok t
    | s :: rest -> ( match validate_spec s with Ok () -> go rest | Error _ as e -> e)
  in
  go t

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_window s =
  (* "FROM", "FROM-", "FROM-UNTIL" *)
  match String.index_opt s '-' with
  | None -> (
      match int_of_string_opt s with
      | Some from -> Ok { from_epoch = from; until_epoch = None }
      | None -> Error (Printf.sprintf "bad window %S" s))
  | Some i -> (
      let from_s = String.sub s 0 i in
      let until_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt from_s with
      | None -> Error (Printf.sprintf "bad window %S" s)
      | Some from ->
          if until_s = "" then Ok { from_epoch = from; until_epoch = None }
          else begin
            match int_of_string_opt until_s with
            | Some until -> Ok { from_epoch = from; until_epoch = Some until }
            | None -> Error (Printf.sprintf "bad window %S" s)
          end)

let parse_token token =
  let token = String.trim token in
  let body, window =
    match String.index_opt token '@' with
    | None -> (token, Ok always)
    | Some i ->
        ( String.sub token 0 i,
          parse_window (String.sub token (i + 1) (String.length token - i - 1)) )
  in
  match window with
  | Error _ as e -> e
  | Ok window -> (
      match String.index_opt body '=' with
      | None -> Error (Printf.sprintf "expected site=value, got %S" token)
      | Some i -> (
          let name = String.lowercase_ascii (String.trim (String.sub body 0 i)) in
          let value = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
          let rate_site make =
            match float_of_string_opt value with
            | Some r -> Ok { site = make r; window }
            | None -> Error (Printf.sprintf "%s: bad rate %S" name value)
          in
          match name with
          | "alloc" -> rate_site (fun r -> Alloc_flaky r)
          | "migrate" -> rate_site (fun r -> Migrate_enomem r)
          | "batch-loss" -> rate_site (fun r -> Batch_loss r)
          | "op-drop" -> rate_site (fun r -> Op_drop r)
          | "hypercall" -> rate_site (fun r -> Hypercall_flaky r)
          | "stall" -> rate_site (fun r -> Vcpu_stall r)
          | "ecc-ce" -> rate_site (fun r -> Ecc_ce r)
          | "ecc-ue" -> rate_site (fun r -> Ecc_ue r)
          | "node_fail" | "node-fail" -> rate_site (fun r -> Node_fail r)
          | "node-off" -> (
              match int_of_string_opt value with
              | Some node -> Ok { site = Node_offline node; window }
              | None -> Error (Printf.sprintf "node-off: bad node %S" value))
          | _ ->
              Error
                (Printf.sprintf "unknown fault site %S (valid sites: %s)" name
                   (String.concat ", " valid_site_names))))

let of_string s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "none" then Ok empty
  else begin
    let tokens = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> validate (List.rev acc)
      | token :: rest -> (
          match parse_token token with
          | Ok spec -> go (spec :: acc) rest
          | Error _ as e -> e)
    in
    go [] tokens
  end

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Faults.Plan.of_string: " ^ msg)

(* Shortest representation that round-trips through float_of_string. *)
let string_of_rate = Sim.Units.exact_float

let spec_to_string s =
  let base =
    match s.site with
    | Node_offline node -> Printf.sprintf "node-off=%d" node
    | site -> (
        match site_rate site with
        | Some r -> Printf.sprintf "%s=%s" (site_name site) (string_of_rate r)
        | None -> assert false)
  in
  if s.window = always then base
  else begin
    match s.window.until_epoch with
    | None -> Printf.sprintf "%s@%d-" base s.window.from_epoch
    | Some u -> Printf.sprintf "%s@%d-%d" base s.window.from_epoch u
  end

let to_string t =
  if t = [] then "none" else String.concat "," (List.map spec_to_string t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
