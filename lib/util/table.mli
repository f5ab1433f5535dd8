(** ASCII table rendering for the benchmark reports.

    The benchmark harness prints each of the paper's tables and figures as
    a plain-text table; this module handles alignment and layout. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the rows out under the header with a
    separator rule.  Columns default to left alignment; [align] overrides
    per column (missing entries default to [Left]).  Rows shorter than the
    header are padded with empty cells. *)

val render_kv : (string * string) list -> string
(** Two-column key/value block without a header. *)

val bar_chart : (string * float) list -> string
(** A horizontal ASCII bar chart: one row per (label, value), at most 50
    characters of bar, with a reference mark at 1.0 for normalized-time
    figures like Fig 4. *)
