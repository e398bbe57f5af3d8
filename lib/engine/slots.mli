(** The per-vCPU slots one epoch writes.

    The epoch kernels write only these vCPU-indexed arrays; every
    accumulation across vCPUs reads them afterwards in one vCPU-order
    reduction ({!Outcome.reduce_latency}, the runner's counter commit).
    The fast-forward captures a copy per epoch parity and replays the
    same reductions over it, so a replayed epoch leaves the bits a
    computed one would.

    {b State owned:} the arrays below, flat and indexed by vCPU.  No
    run state is read. *)

type t = {
  sync : float array;  (** blocked time contribution this epoch *)
  doit : float array;  (** tentative instructions; [> 0] marks vCPUs that did work *)
  cap : float array;  (** instruction capacity this epoch *)
  final : float array;  (** instructions retired this epoch *)
  total : float array;  (** realized accesses, the latency weights *)
  lat : float array;  (** average memory latency per vCPU *)
  dst : float array;
      (** realized traffic, [threads * nodes], row-major by vCPU: row
          [v] is vCPU [v]'s destination spread *)
}

val make : threads:int -> nodes:int -> lat:float -> t
(** Zeroed slots, with every vCPU's latency at [lat]. *)

val copy : from:t -> into:t -> unit
(** Blit every array of [from] into [into] (same shape). *)

val bits_equal : t -> t -> bool
(** Every slot of the two is bitwise equal ([Int64.bits_of_float]), so
    last-ulp neighbours, NaNs and signed zeros are told apart. *)
