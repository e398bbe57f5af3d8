type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = mix seed }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value stays non-negative in a 63-bit int. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land max_int in
  r mod bound

(* 53 random bits mapped to [0,1). *)
let unit_float t =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r *. 0x1p-53

let float t bound = unit_float t *. bound

let bernoulli t p = unit_float t < p

(* Rejection-inversion sampling for the Zipf distribution, after
   W. Hormann and G. Derflinger, "Rejection-inversion to generate variates
   from monotone discrete distributions" (1996).  O(1) per draw; the
   constants that depend only on [n] and [s] are computed once, when the
   sampler is built. *)
type zipf = {
  n : int;
  nf : float;
  s : float;
  log_law : bool;  (* s = 1 (within 1e-9): H is log, its inverse exp *)
  hx0 : float;
  hn : float;
}

let zipf_h ~log_law ~s x = if log_law then log x else (x ** (1.0 -. s)) /. (1.0 -. s)

let zipf_h_inv z x =
  if z.log_law then exp x else ((1.0 -. z.s) *. x) ** (1.0 /. (1.0 -. z.s))

let zipf_sampler ~n ~s =
  assert (n > 0);
  let log_law = Float.abs (1.0 -. s) < 1e-9 and nf = float_of_int n in
  let h = zipf_h ~log_law ~s in
  { n; nf; s; log_law; hx0 = h 0.5 -. 1.0; hn = h (nf +. 0.5) }

let zipf t z =
  if z.n = 1 then 0
  else begin
    let rec draw () =
      let u = z.hx0 +. (unit_float t *. (z.hn -. z.hx0)) in
      let x = zipf_h_inv z u in
      let k = Float.round x in
      let k = Float.max 1.0 (Float.min z.nf k) in
      if k -. x <= 0.5 || u >= zipf_h ~log_law:z.log_law ~s:z.s (k +. 0.5) -. (k ** -.z.s) then
        int_of_float k - 1
      else draw ()
    in
    draw ()
  end

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
