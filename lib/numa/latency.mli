(** Memory-hierarchy latency model.

    Calibrated on the paper's Table 3 (AMD48): cache hits cost a fixed
    number of cycles; a memory access costs a base latency that grows
    with the hop distance, inflated by a contention penalty when the
    destination memory controller or any interconnect link on the route
    saturates.  At full saturation the model reproduces the contended
    column of Table 3 exactly (697 / 740 / 863 cycles). *)

type level = L1 | L2 | L3

type t = {
  l1_cycles : float;
  l2_cycles : float;
  l3_cycles : float;
  mem_base_cycles : float array;
      (** Uncontended memory latency indexed by hop distance. *)
  mem_contended_delta : float array;
      (** Additional cycles at full saturation, per hop distance. *)
  contention_exponent : float;
      (** Convexity of the queueing penalty in the saturation level;
          2.0 gives a gentle knee, matching that contention only bites
          when a resource is close to saturated. *)
  freq_hz : float;  (** CPU frequency used to convert cycles to time. *)
}

val create :
  ?l1_cycles:float ->
  ?l2_cycles:float ->
  ?l3_cycles:float ->
  ?contention_exponent:float ->
  mem_base_cycles:float array ->
  mem_contended_delta:float array ->
  freq_hz:float ->
  unit ->
  t
(** Defaults for the cache levels are the AMD48 values (5/16/48).
    [mem_base_cycles] and [mem_contended_delta] must be non-empty and of
    equal length (index = hop count).
    @raise Invalid_argument on malformed arrays. *)

val cache_cycles : t -> level -> float

val mem_cycles : t -> hops:int -> saturation:float -> float
(** [mem_cycles t ~hops ~saturation] with [saturation] in [\[0, 1\]]
    (values above 1 are clamped): cycles for one memory access at the
    given distance.  [saturation] is the utilisation of the most loaded
    resource (destination controller or any route link). *)

val seconds : t -> cycles:float -> float
(** Convert cycles to seconds at the model's CPU frequency. *)

val access_seconds : t -> hops:int -> saturation:float -> float
(** [mem_cycles] converted to seconds. *)
