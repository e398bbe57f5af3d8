type level = L1 | L2 | L3

type t = {
  l1_cycles : float;
  l2_cycles : float;
  l3_cycles : float;
  mem_base_cycles : float array;
  mem_contended_delta : float array;
  contention_exponent : float;
}

let create ?(l1_cycles = 5.0) ?(l2_cycles = 16.0) ?(l3_cycles = 48.0)
    ?(contention_exponent = 2.0) ~mem_base_cycles ~mem_contended_delta () =
  if Array.length mem_base_cycles = 0 then
    invalid_arg "Latency.create: empty mem_base_cycles";
  if Array.length mem_base_cycles <> Array.length mem_contended_delta then
    invalid_arg "Latency.create: base/delta length mismatch";
  { l1_cycles; l2_cycles; l3_cycles; mem_base_cycles; mem_contended_delta;
    contention_exponent }

let cache_cycles t = function
  | L1 -> t.l1_cycles
  | L2 -> t.l2_cycles
  | L3 -> t.l3_cycles

let max_hops t = Array.length t.mem_base_cycles - 1

let mem_cycles t ~hops ~saturation =
  let hops = min hops (max_hops t) in
  assert (hops >= 0);
  let s = Float.max 0.0 (Float.min 1.0 saturation) in
  (* [( ** )] goes through pow(); the default quadratic exponent is a
     single multiply.  (s ** 2.0 = s *. s exactly for finite s.) *)
  let contended =
    if t.contention_exponent = 2.0 then s *. s else s ** t.contention_exponent
  in
  t.mem_base_cycles.(hops) +. (t.mem_contended_delta.(hops) *. contended)
