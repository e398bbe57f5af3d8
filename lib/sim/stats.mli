(** Array statistics, a latency histogram and a top-k selector used by
    counters and reports. *)

val mean : float array -> float

val relative_stddev : float array -> float
(** Population standard deviation divided by the mean — the paper's
    "imbalance" metric (Table 1) over per-node access counts.  Returns
    0 when the mean is 0. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]]; linear interpolation
    between ranks.  The array is sorted internally (copy). *)

(** Log-bucketed histogram for latency-style distributions: fixed
    relative bucket width (default ~9%, base [2^(1/8)]), O(buckets)
    percentiles, exact count/sum/min/max.  Zero and negative samples
    share one bucket reported as 0. *)
module Histogram : sig
  type t

  val create : ?base:float -> unit -> t
  (** [base] is the bucket ratio, must be [> 1]. *)

  val add : t -> float -> unit

  val add_n : t -> float -> int -> unit
  (** [add_n t v n] records [n] identical samples of [v], leaving [t]
      bit-identical to [n] successive [add t v] calls — the running sum
      is accumulated by [n] sequential float additions, never by
      [v *. float n], because repeated addition does not distribute.
      [n = 0] is a no-op.
      @raise Invalid_argument on a negative [n]. *)

  val count : t -> int
  val mean : t -> float

  val min : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,100\]]: the geometric centre of
      the bucket holding the rank, clamped to the observed
      [\[min,max\]] range (0 for an empty histogram). *)

  val zeros : t -> int
  (** Samples that landed in the zero-or-negative bucket. *)

  val bucket_counts : t -> (int * int) list
  (** Positive-value buckets as (index, count), index ascending.  The
      distribution state minus float [total]: two histograms with equal
      [bucket_counts], [zeros], [count], [min] and [max] report equal
      percentiles. *)

  val merge : t -> t -> unit
  (** Fold [other]'s samples into [t].
      @raise Invalid_argument when bases differ. *)
end

(** Bounded top-k selection over (key, id) pairs: a flat-array binary
    min-heap of the k best candidates, whose root is the worst kept
    element.  Ranking is the total order "bigger key first, ties toward
    the smaller id", so the selected set and its order never depend on
    insertion order.  Zero allocation after [create] except in
    [sorted_desc]. *)
module Topk : sig
  type t

  val create : int -> t
  (** [create k] keeps the best [k] candidates.
      @raise Invalid_argument when [k <= 0]. *)

  val size : t -> int

  val add : t -> key:float -> int -> unit
  (** Offer a candidate.  O(1) when it ranks below the current root,
      O(log k) otherwise. *)

  val sorted_desc : t -> (float * int) array
  (** Kept candidates, best first (key descending, id ascending on
      ties).  Allocates the result array. *)

  val heap_invariant : t -> bool
  (** Whether the internal heap shape is valid (property tests). *)
end
