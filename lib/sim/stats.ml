let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (acc /. float_of_int n)
  end

let relative_stddev a =
  let m = mean a in
  if m = 0.0 then 0.0 else stddev a /. m

let percentile a p =
  assert (p >= 0.0 && p <= 100.0);
  let n = Array.length a in
  assert (n > 0);
  let sorted = Array.copy a in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

module Histogram = struct
  (* Log-bucketed histogram: values land in geometric buckets of ratio
     [base] (default 2^(1/8), ~9% wide), so percentiles cost O(buckets)
     with bounded relative error whatever the value range.  Zero and
     negative values share a dedicated bucket reported as 0. *)

  (* The running float statistics sit in an all-float record, whose
     fields OCaml stores unboxed: adding a sample allocates nothing for
     them. *)
  type moments = { mutable sum : float; mutable min : float; mutable max : float }

  type t = {
    base : float;
    log_base : float;
    buckets : (int, int ref) Hashtbl.t;
    mutable zeros : int;
    mutable count : int;
    m : moments;
  }

  let create ?(base = Float.pow 2.0 0.125) () =
    if base <= 1.0 then invalid_arg "Histogram.create: base must be > 1";
    {
      base;
      log_base = log base;
      buckets = Hashtbl.create 64;
      zeros = 0;
      count = 0;
      m = { sum = 0.0; min = Float.infinity; max = Float.neg_infinity };
    }

  let bucket_of t v = int_of_float (Float.round (log v /. t.log_base))

  (* Geometric centre of a bucket: the canonical value reported for
     every sample that landed in it. *)
  let value_of t idx = Float.pow t.base (float_of_int idx)

  (* [Hashtbl.find], not [find_opt]: a hit allocates no option. *)
  let bump t idx n =
    match Hashtbl.find t.buckets idx with
    | r -> r := !r + n
    | exception Not_found -> Hashtbl.replace t.buckets idx (ref n)

  (* Bulk insert of [n] identical samples.  The sum is accumulated by
     [n] sequential additions, NOT [v *. float n]: repeated float
     addition is not distributive, and the engine's fast-forward path
     needs [add_n t v n] to leave [t] bit-identical to [n] calls of
     [add t v]. *)
  let add_n t v n =
    if n < 0 then invalid_arg "Histogram.add_n: negative count";
    if n > 0 then begin
      let m = t.m in
      t.count <- t.count + n;
      for _ = 1 to n do
        m.sum <- m.sum +. v
      done;
      if v < m.min then m.min <- v;
      if v > m.max then m.max <- v;
      if v <= 0.0 then t.zeros <- t.zeros + n else bump t (bucket_of t v) n
    end

  let add t v = add_n t v 1

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.m.sum /. float_of_int t.count
  let min t = if t.count = 0 then 0.0 else t.m.min
  let max t = if t.count = 0 then 0.0 else t.m.max

  let sorted_buckets t =
    let all = Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) t.buckets [] in
    List.sort (fun (a, _) (b, _) -> compare a b) all

  let percentile t p =
    assert (p >= 0.0 && p <= 100.0);
    if t.count = 0 then 0.0
    else begin
      let rank = p /. 100.0 *. float_of_int t.count in
      let seen = ref (float_of_int t.zeros) in
      if !seen >= rank && t.zeros > 0 then 0.0
      else begin
        let result = ref t.m.max in
        (try
           List.iter
             (fun (idx, n) ->
               seen := !seen +. float_of_int n;
               if !seen >= rank then begin
                 result := value_of t idx;
                 raise Exit
               end)
             (sorted_buckets t)
         with Exit -> ());
        (* Clamp to the observed range: the bucket centre can exceed
           the true extremes by half a bucket. *)
        Float.min t.m.max (Float.max t.m.min !result)
      end
    end

  let zeros t = t.zeros
  let bucket_counts t = sorted_buckets t

  let merge t other =
    if Float.abs (t.base -. other.base) > 1e-12 then
      invalid_arg "Histogram.merge: mismatched bucket bases";
    Hashtbl.iter (fun idx r -> bump t idx !r) other.buckets;
    t.zeros <- t.zeros + other.zeros;
    t.count <- t.count + other.count;
    t.m.sum <- t.m.sum +. other.m.sum;
    if other.m.min < t.m.min then t.m.min <- other.m.min;
    if other.m.max > t.m.max then t.m.max <- other.m.max
end
