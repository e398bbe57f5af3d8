(** The benchmark's workloads: fixed lists of simulator runs ("cells").

    Each cell is one {!Engine.Config.t} handed straight to
    {!Engine.Runner.run}; nothing goes through the experiment grids'
    memo table, so a cell's host time never depends on which cells ran
    before it in the process. *)

type cell = {
  label : string;  (** Stable identity; also the seed tag. *)
  config : Engine.Config.t;
}

val workloads : string list
(** Valid [--workload] names, in presentation order. *)

val usage : string
(** One-line list of the valid workload names, for error messages. *)

val consolidation_pairs : (string * string) list
(** The 29 distinct application pairs of the [consolidation] workload,
    the same for every seed.  Every app is in exactly two pairs, and
    bodytrack + streamcluster is the only pair of two apps from the
    smaller-footprint half of the catalogue. *)

val build : seed:int -> string -> cell list option
(** The workload's cells in run order; [None] for an unknown name.
    Each cell's seed is FNV-1a over its label folded into [seed], the
    scheme the experiment grids use for their per-cell streams. *)
