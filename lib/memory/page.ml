type mfn = int
type pfn = int
type vfn = int

let size_4k = Sim.Units.kib 4
let size_2m = Sim.Units.mib 2
let size_1g = Sim.Units.gib 1

(* Orders are derived from the Units sizes, not hard-coded a second
   time: a buddy order is the exact log2 of the size ratio, so the
   round-1G/round-4K granularity constants can never drift apart from
   the byte math. *)
let order_of_size bytes =
  if bytes < size_4k || bytes mod size_4k <> 0 then
    invalid_arg "Page.order_of_size: not a whole number of 4 KiB frames";
  let frames = bytes / size_4k in
  if frames land (frames - 1) <> 0 then
    invalid_arg "Page.order_of_size: not a power-of-two frame count";
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
  log2 0 frames

let order_2m = order_of_size size_2m
let order_1g = order_of_size size_1g
let frames_per_2m = 1 lsl order_2m
let frames_per_1g = 1 lsl order_1g
