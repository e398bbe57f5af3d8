(** Horizontal ASCII bar charts for figure reproduction. *)

val render :
  title:string ->
  ?unit_label:string ->
  ?width:int ->
  (string * float) list ->
  string
(** One bar per (label, value); bars scale to the maximum value over
    [width] characters (default 50).  Negative values render leftwards
    markers. *)

val print :
  title:string -> ?unit_label:string -> ?width:int -> (string * float) list -> unit

val render_groups :
  title:string ->
  series:string list ->
  ?width:int ->
  (string * float list) list ->
  string
(** Grouped bars: each (label, values) row renders one bar per series,
    tagged with the series name — the ASCII equivalent of the paper's
    grouped bar figures. *)
