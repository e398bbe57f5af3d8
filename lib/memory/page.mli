(** Page-size constants and frame-number types.

    Throughout the simulator a {e frame} is one allocation unit of
    machine memory and a {e page} one unit of guest-physical or virtual
    memory; both are [page_size] bytes (4 KiB) times the machine's
    [page_scale].  Frame and page numbers are plain ints; the type
    aliases document intent at interfaces. *)

type mfn = int
(** Machine frame number (an index into machine memory). *)

type pfn = int
(** Guest-physical frame number (an index into a VM's physical
    address space). *)

type vfn = int
(** Virtual frame number (an index into a process address space). *)

val size_4k : int

val frames_per_2m : int
(** 4 KiB frames per 2 MiB superpage (512). *)

val frames_per_1g : int
(** 4 KiB frames per 1 GiB region (262144). *)

val order_of_size : int -> int
(** Buddy order of a power-of-two block of [bytes]: the exact log2 of
    [bytes / size_4k].  All order constants below are derived through
    this from the {!Sim.Units} sizes, so they cannot drift from the
    byte math.
    @raise Invalid_argument if [bytes] is not a power-of-two multiple
    of {!size_4k}. *)

val order_4k : int
val order_2m : int
(** Buddy order of a 2 MiB block of 4 KiB frames (9). *)

val order_1g : int
(** Buddy order of a 1 GiB block of 4 KiB frames (18). *)

val frames_of_bytes : bytes:int -> int
(** Number of 4 KiB frames covering [bytes], rounded up. *)
