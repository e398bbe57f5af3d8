(* The per-vCPU slots one epoch writes: what the kernels leave behind
   for the end of the epoch, and, through [lat], for the next epoch's
   compute kernel.  Flat and indexed by vCPU ([dst] row [t * nodes ..
   t * nodes + nodes - 1] is vCPU [t]'s destination spread), so the
   kernels walk contiguous memory.

   The kernels write {e only} vCPU-indexed slots; every accumulation
   that crosses vCPUs ([src_shared], the counters, [sums] ...)
   reads them afterwards in one sequential vCPU-order reduction.  Float
   addition is not associative, so the reduction order — vCPU 0, 1,
   2, ... — is fixed.  The runner holds the live slots; the
   fast-forward captures copies and runs the same end-of-epoch stages
   over a copy (DESIGN.md §13, §17). *)
type t = {
  sync : float array;   (* blocked time contribution this epoch *)
  doit : float array;   (* tentative instructions; > 0 marks vCPUs that did work *)
  cap : float array;    (* instruction capacity this epoch *)
  final : float array;  (* instructions retired this epoch: the throughput kernel
                           scales [dst] in place, which loses [doit *. realized] *)
  total : float array;  (* realized accesses, the latency weights *)
  lat : float array;    (* average memory latency per vCPU *)
  dst : float array;    (* realized traffic, threads * nodes, row-major by vCPU *)
}

let make ~threads ~nodes ~lat =
  {
    sync = Array.make threads 0.0;
    doit = Array.make threads 0.0;
    cap = Array.make threads 0.0;
    final = Array.make threads 0.0;
    total = Array.make threads 0.0;
    lat = Array.make threads lat;
    dst = Array.make (threads * nodes) 0.0;
  }

let copy ~from ~into =
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit from.sync into.sync;
  blit from.doit into.doit;
  blit from.cap into.cap;
  blit from.final into.final;
  blit from.total into.total;
  blit from.lat into.lat;
  blit from.dst into.dst

(* Bitwise equality of two float arrays — the witness comparisons must
   distinguish last-ulp neighbours, which [=] on floats does, but
   bit-comparison also makes the NaN/negative-zero cases unambiguous. *)
let arrays_bits_equal a b =
  let ok = ref true in
  let n = Array.length a in
  for i = 0 to n - 1 do
    if !ok && Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then ok := false
  done;
  !ok

let bits_equal a b =
  arrays_bits_equal a.lat b.lat && arrays_bits_equal a.dst b.dst
  && arrays_bits_equal a.total b.total && arrays_bits_equal a.sync b.sync
  && arrays_bits_equal a.doit b.doit && arrays_bits_equal a.cap b.cap
  && arrays_bits_equal a.final b.final
