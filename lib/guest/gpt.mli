(** Guest page table: per-process mapping of virtual frame numbers to
    guest-physical frame numbers, with Linux's lazy allocation.

    Creating a mapping does not allocate physical memory; the first
    access to a virtual page takes a guest page fault, and the fault
    handler allocates a physical frame.  This guest-level laziness is
    what the hypervisor cannot see — the motivation for the paper's
    external interface (Figure 4). *)

type t

val create : frames:int -> t
(** Address space of [frames] virtual frames, all unmapped. *)

val touch : t -> Memory.Page.vfn -> alloc:(unit -> Memory.Page.pfn) -> Memory.Page.pfn
(** [touch t vfn ~alloc] resolves an access: returns the mapped frame,
    or on first touch (a guest page fault) calls [alloc] to obtain one
    and maps it.  [-1] only if [alloc] fails (returns [-1]: out of
    memory).
    @raise Invalid_argument on an out-of-range vfn. *)
