(** Plain-text table rendering for the benchmark harness.

    Every driver of [bench/main.exe] prints its rows through this
    module (via [Runs.report]), so the output reads like the rows a
    paper would report. *)

(** [render ~title ~header rows] renders an ASCII table: the first
    column left-aligned (the label), the rest right-aligned (the
    numbers).  Rows shorter than the header are padded with empty
    cells. *)
val render : title:string -> header:string list -> string list list -> string
