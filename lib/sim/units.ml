let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let pp_bytes fmt n =
  let f = float_of_int n in
  if f >= 1024.0 ** 3.0 then Format.fprintf fmt "%.1f GiB" (f /. (1024.0 ** 3.0))
  else if f >= 1024.0 ** 2.0 then Format.fprintf fmt "%.1f MiB" (f /. (1024.0 ** 2.0))
  else if f >= 1024.0 then Format.fprintf fmt "%.1f KiB" (f /. 1024.0)
  else Format.fprintf fmt "%d B" n

let pp_seconds fmt s =
  if s < 1e-6 then Format.fprintf fmt "%.0f ns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf fmt "%.1f us" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%.2f ms" (s *. 1e3)
  else Format.fprintf fmt "%.2f s" s

let exact_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
