(** NUMA policy specifications.

    A policy combines a static placement (where a page lands when it is
    first mapped) with the optional Carrefour dynamic policy on top
    (which migrates pages afterwards).  The paper studies:

    - [Round_1g]: Xen's default — eager allocation in 1 GiB regions
      round-robin over the home nodes (2 MiB / 4 KiB under
      fragmentation);
    - [Round_4k]: eager 4 KiB pages round-robin over the home nodes
      (Linux's interleave policy, and the boot default of the paper's
      modified Xen);
    - [First_touch]: lazy — a page is placed on the NUMA node of the
      CPU that first touches it (Linux's default);
    - each optionally combined with [carrefour].

    Round-1G cannot be selected at runtime (only at boot, for testing):
    the evaluation shows it is much less useful than the others. *)

type placement = Round_1g | Round_4k | First_touch

type t = {
  placement : placement;
  carrefour : bool;
}

val round_1g : t
val round_4k : t
val first_touch : t
val round_4k_carrefour : t
val first_touch_carrefour : t

val all : t list
(** The five specs above, in the paper's presentation order. *)

val runtime_selectable : t -> bool
(** All except boot-only round-1G combinations. *)

val boot : superpages:bool -> t -> t
(** The eager placement a Xen domain boots with before it switches to
    the given policy: round-1G for round-1G, and for first-touch when
    [superpages] is on (the contiguous boot is worth modelling there:
    the switch's free-list release then splinters every 2 MiB entry,
    the paper's granularity tension at its sharpest); round-4K
    otherwise. *)

val invalidates_free_pages : t -> bool
(** The policy invalidates the P2M entries of the guest's free pages
    (first-touch), so their next touch faults into the hypervisor.  It
    is then incompatible with the IOMMU (an invalid entry aborts a
    passthrough DMA) and acts on the guest's page-ops queue. *)

val name : t -> string
(** Paper-style name: ["first-touch/carrefour"], ["round-4k"], ... *)

val of_string : string -> (t, string) result
(** Parses names as printed by {!name}; accepts ["ft"], ["r4k"],
    ["r1g"] shorthands and a ["+carrefour"] / ["/carrefour"] suffix.
    Any other suffix is an error (a typo such as ["ft/carefour"] never
    falls back to the bare placement), and the message lists the valid
    spellings. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
