type t = {
  entries_4k : int;
  entries_2m : int;
  walk_cycles_native : float;
  walk_cycles_virtualized : float;
  spatial_accesses_per_4k : float;
}

let opteron =
  {
    entries_4k = 1024;
    entries_2m = 48;
    walk_cycles_native = 60.0;
    walk_cycles_virtualized = 180.0;
    spatial_accesses_per_4k = 20.0;
  }

type page_size = Small_4k | Huge_2m

let coverage_bytes t = function
  | Small_4k -> t.entries_4k * 4096
  | Huge_2m -> t.entries_2m * 2 * 1024 * 1024

let page_bytes = function Small_4k -> 4096.0 | Huge_2m -> 2.0 *. 1024.0 *. 1024.0

let miss_ratio t page_size ~footprint_bytes ~hot_access_share =
  assert (footprint_bytes >= 0);
  assert (hot_access_share >= 0.0 && hot_access_share <= 1.0);
  let coverage = float_of_int (coverage_bytes t page_size) in
  let footprint = float_of_int footprint_bytes in
  if footprint <= coverage then 0.0
  else begin
    (* Accesses to the covered hot set hit; the cold tail misses in
       proportion to how much of the footprint the TLB cannot map,
       bounded by spatial locality: a thread makes many consecutive
       accesses within a page before leaving it, and a 2 MiB page
       absorbs 512x more of them than a 4 KiB page — which is exactly
       why large pages pay off. *)
    let uncovered = (footprint -. coverage) /. footprint in
    let spatial = t.spatial_accesses_per_4k *. (page_bytes page_size /. 4096.0) in
    (1.0 -. hot_access_share) *. uncovered /. spatial
  end

let walk_cycles t ~virtualized =
  if virtualized then t.walk_cycles_virtualized else t.walk_cycles_native

(* ------------------------- radix walk model ------------------------- *)

let walk_levels = 4

let radix_levels = function Small_4k -> walk_levels | Huge_2m -> walk_levels - 1

let walk_cycles_radix t ~virtualized ~levels ~ratio =
  (* The flat constants describe a full 4-level walk against local
     memory; a radix walk charges each level separately, scaled by the
     latency of the node holding the page tables relative to local
     memory.  A ratio of 1.0 over all 4 levels telescopes back to the
     flat constant exactly (the division and the 4-term sum are
     FP-exact for the calibrated values).  The sum stays a per-level
     loop rather than a product: its rounding is what the engine's
     results were recorded with. *)
  let per_level = walk_cycles t ~virtualized /. float_of_int walk_levels in
  let acc = ref 0.0 in
  for _ = 0 to levels - 1 do
    acc := !acc +. (per_level *. ratio)
  done;
  !acc

let cycles_per_access_radix t page_size ~virtualized ~footprint_bytes ~hot_access_share
    ~ratio =
  miss_ratio t page_size ~footprint_bytes ~hot_access_share
  *. walk_cycles_radix t ~virtualized ~levels:(radix_levels page_size) ~ratio

let cycles_per_access_mixed_radix t ~huge_fraction ~virtualized ~footprint_bytes
    ~hot_access_share ~ratio =
  let f = Float.min 1.0 (Float.max 0.0 huge_fraction) in
  let huge =
    cycles_per_access_radix t Huge_2m ~virtualized ~footprint_bytes ~hot_access_share
      ~ratio
  in
  let small =
    cycles_per_access_radix t Small_4k ~virtualized ~footprint_bytes ~hot_access_share
      ~ratio
  in
  (f *. huge) +. ((1.0 -. f) *. small)

let cycles_per_access t page_size ~virtualized ~footprint_bytes ~hot_access_share =
  miss_ratio t page_size ~footprint_bytes ~hot_access_share *. walk_cycles t ~virtualized

let cycles_per_access_mixed t ~huge_fraction ~virtualized ~footprint_bytes ~hot_access_share =
  let f = Float.min 1.0 (Float.max 0.0 huge_fraction) in
  let huge = cycles_per_access t Huge_2m ~virtualized ~footprint_bytes ~hot_access_share in
  let small = cycles_per_access t Small_4k ~virtualized ~footprint_bytes ~hot_access_share in
  (f *. huge) +. ((1.0 -. f) *. small)
