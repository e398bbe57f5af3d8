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

let copy t = { state = t.state }

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

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* Rejection-inversion sampling for the Zipf distribution, after
   W. Hormann and G. Derflinger, "Rejection-inversion to generate variates
   from monotone discrete distributions" (1996).  O(1) per draw. *)
let zipf t ~n ~s =
  assert (n > 0);
  if n = 1 then 0
  else begin
    let nf = float_of_int n in
    let h x = if Float.abs (1.0 -. s) < 1e-9 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x =
      if Float.abs (1.0 -. s) < 1e-9 then exp x else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s))
    in
    let hx0 = h 0.5 -. 1.0 in
    let hn = h (nf +. 0.5) in
    let rec draw () =
      let u = hx0 +. (unit_float t *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = Float.max 1.0 (Float.min nf k) in
      if k -. x <= 0.5 || u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k - 1
      else draw ()
    in
    draw ()
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
