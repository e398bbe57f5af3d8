type placement = Round_1g | Round_4k | First_touch

type t = { placement : placement; carrefour : bool }

let round_1g = { placement = Round_1g; carrefour = false }
let round_4k = { placement = Round_4k; carrefour = false }
let first_touch = { placement = First_touch; carrefour = false }
let round_4k_carrefour = { placement = Round_4k; carrefour = true }
let first_touch_carrefour = { placement = First_touch; carrefour = true }

let all = [ first_touch; first_touch_carrefour; round_4k; round_4k_carrefour; round_1g ]

let runtime_selectable t = t.placement <> Round_1g

let boot ~superpages t =
  match t.placement with
  | Round_1g -> round_1g
  | First_touch when superpages -> round_1g
  | First_touch | Round_4k -> round_4k

let invalidates_free_pages t = t.placement = First_touch

let placement_name = function
  | Round_1g -> "round-1g"
  | Round_4k -> "round-4k"
  | First_touch -> "first-touch"

let name t =
  if t.carrefour then placement_name t.placement ^ "/carrefour" else placement_name t.placement

let placement_of_string = function
  | "round-1g" | "r1g" | "round1g" -> Some Round_1g
  | "round-4k" | "r4k" | "round4k" | "interleave" -> Some Round_4k
  | "first-touch" | "ft" | "firsttouch" -> Some First_touch
  | _ -> None

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let cut i = (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1))) in
  let base, suffix =
    match (String.index_opt s '/', String.index_opt s '+') with
    | Some i, _ | None, Some i -> cut i
    | None, None -> (s, None)
  in
  match (placement_of_string base, suffix) with
  | Some Round_1g, Some "carrefour" -> Error "round-1g cannot be combined with carrefour"
  | Some placement, (None | Some "carrefour") -> Ok { placement; carrefour = suffix <> None }
  | Some _, Some _ | None, _ ->
      Error
        (Printf.sprintf
           "unknown NUMA policy %S; valid policies: %s (shorthands ft, r4k, r1g; \"+carrefour\" \
            also accepted)"
           s
           (String.concat ", " (List.map name all)))

let pp fmt t = Format.pp_print_string fmt (name t)

let equal a b = a.placement = b.placement && a.carrefour = b.carrefour
