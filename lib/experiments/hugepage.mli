(** The hugepage grid: 2 MiB P2M superpages on/off across the three
    boot placements (round-1G / round-4K / first-touch) for two
    TLB-sensitive applications.  Round-1G keeps its boot superpages and
    wins the nested-paging TLB gap; round-4K never forms any; the
    first-touch policy switch splinters every extent and closes the
    gap, leaving the splinter/promote counters as the explanation. *)

val print : ?seed:int -> unit -> unit
(** Run and print the (superpages-off, superpages-on) pair of every
    (app, boot placement) cell.  Both halves of a pair share one
    derived seed, so their workload streams are identical and the delta
    is the superpage effect; parallelised over the engine pool
    (bit-identical whatever the job count). *)
