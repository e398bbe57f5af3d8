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

  type t = {
    base : float;
    log_base : float;
    buckets : (int, int ref) Hashtbl.t;
    mutable zeros : int;
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create ?(base = Float.pow 2.0 0.125) () =
    if base <= 1.0 then invalid_arg "Histogram.create: base must be > 1";
    {
      base;
      log_base = log base;
      buckets = Hashtbl.create 64;
      zeros = 0;
      count = 0;
      sum = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let bucket_of t v = int_of_float (Float.round (log v /. t.log_base))

  (* Geometric centre of a bucket: the canonical value reported for
     every sample that landed in it. *)
  let value_of t idx = Float.pow t.base (float_of_int idx)

  let add t v =
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v;
    if v <= 0.0 then t.zeros <- t.zeros + 1
    else begin
      let idx = bucket_of t v in
      match Hashtbl.find_opt t.buckets idx with
      | Some r -> incr r
      | None -> Hashtbl.replace t.buckets idx (ref 1)
    end

  (* Bulk insert of [n] identical samples.  The sum is accumulated by
     [n] sequential additions, NOT [v *. float n]: repeated float
     addition is not distributive, and the engine's fast-forward path
     needs [add_n t v n] to leave [t] bit-identical to [n] calls of
     [add t v]. *)
  let add_n t v n =
    if n < 0 then invalid_arg "Histogram.add_n: negative count";
    if n > 0 then begin
      t.count <- t.count + n;
      for _ = 1 to n do
        t.sum <- t.sum +. v
      done;
      if v < t.min then t.min <- v;
      if v > t.max then t.max <- v;
      if v <= 0.0 then t.zeros <- t.zeros + n
      else begin
        let idx = bucket_of t v in
        match Hashtbl.find_opt t.buckets idx with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace t.buckets idx (ref n)
      end
    end

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let min t = if t.count = 0 then 0.0 else t.min
  let max t = if t.count = 0 then 0.0 else t.max

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
        let result = ref t.max in
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
        Float.min t.max (Float.max t.min !result)
      end
    end

  let zeros t = t.zeros
  let bucket_counts t = sorted_buckets t

  let merge t other =
    if Float.abs (t.base -. other.base) > 1e-12 then
      invalid_arg "Histogram.merge: mismatched bucket bases";
    Hashtbl.iter
      (fun idx r ->
        match Hashtbl.find_opt t.buckets idx with
        | Some mine -> mine := !mine + !r
        | None -> Hashtbl.replace t.buckets idx (ref !r))
      other.buckets;
    t.zeros <- t.zeros + other.zeros;
    t.count <- t.count + other.count;
    t.sum <- t.sum +. other.sum;
    if other.min < t.min then t.min <- other.min;
    if other.max > t.max then t.max <- other.max
end

module Topk = struct
  (* Bounded top-k selector: a binary min-heap of the k best candidates
     seen so far, stored in parallel flat arrays (no boxing, no
     allocation after [create]).  The root is the WORST kept element,
     so a candidate is admitted with one root comparison and at most
     O(log k) sifting.  Ranking is the total order "bigger key wins,
     ties break toward the smaller id", so the selected set and the
     [sorted_desc] order are independent of insertion order — the
     property the trace determinism bar needs. *)

  type t = {
    k : int;
    keys : float array;
    ids : int array;
    mutable size : int;
  }

  let create k =
    if k <= 0 then invalid_arg "Topk.create: k must be positive";
    { k; keys = Array.make k 0.0; ids = Array.make k 0; size = 0 }

  let size t = t.size

  (* [ranks_below ka ia kb ib]: candidate (ka, ia) ranks strictly below
     (kb, ib) in the keep order. *)
  let ranks_below ka ia kb ib = ka < kb || (ka = kb && ia > ib)

  let swap t i j =
    let k = t.keys.(i) and id = t.ids.(i) in
    t.keys.(i) <- t.keys.(j);
    t.ids.(i) <- t.ids.(j);
    t.keys.(j) <- k;
    t.ids.(j) <- id

  let rec sift_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if ranks_below t.keys.(i) t.ids.(i) t.keys.(p) t.ids.(p) then begin
        swap t i p;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < t.size && ranks_below t.keys.(l) t.ids.(l) t.keys.(!m) t.ids.(!m) then m := l;
    if r < t.size && ranks_below t.keys.(r) t.ids.(r) t.keys.(!m) t.ids.(!m) then m := r;
    if !m <> i then begin
      swap t i !m;
      sift_down t !m
    end

  let add t ~key id =
    if t.size < t.k then begin
      t.keys.(t.size) <- key;
      t.ids.(t.size) <- id;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end
    else if ranks_below t.keys.(0) t.ids.(0) key id then begin
      t.keys.(0) <- key;
      t.ids.(0) <- id;
      sift_down t 0
    end

  let sorted_desc t =
    let a = Array.init t.size (fun i -> (t.keys.(i), t.ids.(i))) in
    Array.sort
      (fun (ka, ia) (kb, ib) -> if ka = kb then compare ia ib else compare kb ka)
      a;
    a

  (* Heap-shape invariant, exposed for the property tests: no element
     ranks strictly below its parent. *)
  let heap_invariant t =
    let ok = ref true in
    for i = 1 to t.size - 1 do
      let p = (i - 1) / 2 in
      if ranks_below t.keys.(i) t.ids.(i) t.keys.(p) t.ids.(p) then ok := false
    done;
    !ok
end
