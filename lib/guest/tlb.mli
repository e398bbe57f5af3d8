(** TLB reach model — the substrate behind the paper's first
    future-work item ("handling large pages in order to decrease the
    number of TLB misses should further improve performance").

    The cost of a TLB miss is very different native vs virtualized:
    with nested paging the hardware walks {e two} page tables (guest
    and hypervisor), up to 24 memory references instead of 4, which is
    why large pages matter more inside a VM.

    The model is a coverage argument: a TLB with [entries] entries of
    [page_bytes] pages covers [entries * page_bytes] of address space;
    accesses beyond the covered hot set miss with a probability that
    grows with the uncovered fraction of the footprint.  With a skewed
    (Zipf) access pattern most accesses hit the covered hot pages, so
    the miss ratio is scaled by the cold-tail access share. *)

type t = {
  entries_4k : int;  (** 4 KiB-page entries (L2 DTLB). *)
  entries_2m : int;  (** 2 MiB-page entries. *)
  walk_cycles_native : float;  (** One-dimensional page walk. *)
  walk_cycles_virtualized : float;
      (** Two-dimensional (nested) page walk under a hypervisor. *)
  spatial_accesses_per_4k : float;
      (** Consecutive accesses a thread makes within one 4 KiB page
          before leaving it; larger pages absorb proportionally more
          accesses per TLB entry. *)
}

val opteron : t
(** The AMD Opteron 6174: 1024-entry 4 KiB L2 DTLB, 48-entry unified
    L1 that also holds 2 MiB entries; ~60-cycle native walks, ~3x that
    for nested walks. *)

type page_size = Small_4k | Huge_2m

val coverage_bytes : t -> page_size -> int
(** Address space the TLB can map at once for the given page size. *)

val miss_ratio : t -> page_size -> footprint_bytes:int -> hot_access_share:float -> float
(** Fraction of memory accesses that miss the TLB.  [hot_access_share]
    is the share of accesses going to the covered hot set (1.0 for a
    fully cache-resident hot set, lower for uniform patterns). *)

val walk_cycles : t -> virtualized:bool -> float

val cycles_per_access :
  t -> page_size -> virtualized:bool -> footprint_bytes:int -> hot_access_share:float -> float
(** Expected TLB-walk cycles added to each memory access. *)

val cycles_per_access_mixed :
  t ->
  huge_fraction:float ->
  virtualized:bool ->
  footprint_bytes:int ->
  hot_access_share:float ->
  float
(** {!cycles_per_access} for an address space that is only partially
    backed by 2 MiB mappings: the P2M superpage fraction of guest
    memory enjoys {!Huge_2m} reach, the splintered remainder pays
    {!Small_4k} walks.  [huge_fraction] is clamped to [\[0, 1\]]. *)

(** {2 Radix walk model}

    Mitosis-style refinement of the flat walk constants: a page walk
    is [walk_levels] dependent memory references, each hitting the
    node that holds the page tables.  Remote PT pages make each
    reference dearer by the remote/local latency [ratio]; 2 MiB
    mappings terminate the walk one level early. *)

val walk_levels : int
(** Depth of a full 4 KiB radix walk (4 on x86-64). *)

val walk_cycles_radix : t -> virtualized:bool -> levels:int -> ratio:float -> float
(** Cycles for one walk of [levels] levels.  [ratio] is the
    memory-latency ratio (relative to local) of the node backing the
    page tables, the same for every level; a ratio of 1.0 over all
    {!walk_levels} levels reproduces {!walk_cycles} exactly. *)

val cycles_per_access_radix :
  t ->
  page_size ->
  virtualized:bool ->
  footprint_bytes:int ->
  hot_access_share:float ->
  ratio:float ->
  float
(** {!cycles_per_access} with the radix walk in place of the flat
    constant. *)

val cycles_per_access_mixed_radix :
  t ->
  huge_fraction:float ->
  virtualized:bool ->
  footprint_bytes:int ->
  hot_access_share:float ->
  ratio:float ->
  float
(** {!cycles_per_access_mixed} with the radix walk: the superpage
    share walks one level fewer, both shares price each level by
    [ratio]. *)
