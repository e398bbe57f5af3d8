(** Single-VM experiments: Figures 1, 2, 6, 7, 10 and Tables 1, 2, 4.

    Each [print_*] computes the data series of the corresponding paper
    figure/table and renders it as the paper's rows.  Overheads follow
    the paper's convention: [T / T_baseline - 1] (lower is better);
    improvements are [T_baseline / T - 1] (higher is better). *)

val print_fig1 : ?seed:int -> unit -> unit
(** Overhead of stock Xen (round-1G, pv I/O, virtualized IPIs) versus
    Linux (first-touch). *)

val print_fig2 : ?seed:int -> unit -> unit
(** Linux NUMA policies versus Linux first-touch, as improvements
    relative to the first-touch run, with the best of the four
    combinations. *)

val print_tab1 : ?seed:int -> unit -> unit
(** Measured imbalance and interconnect load under the two static
    policies in Linux, with the paper's values alongside, and the tail
    latency of the first-touch run. *)

val print_tab2 : unit -> unit
(** Application behaviour table (I/O, context switches, footprint). *)

val print_fig6 : ?seed:int -> unit -> unit
(** Overheads of Linux, Xen and Xen+ versus LinuxNUMA. *)

val print_fig7 : ?seed:int -> unit -> unit
(** Improvements of each Xen policy versus the Xen+ round-1G
    default. *)

val print_tab4 : ?seed:int -> unit -> unit
(** Best measured policies versus the paper's Table 4. *)

val print_fig10 : ?seed:int -> unit -> unit
(** Overhead of Xen+ and Xen+NUMA versus LinuxNUMA. *)
