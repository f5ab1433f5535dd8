(** Fig 1d / §5.5: the meander backtrace and DWARF validation.

    Reproduces the gdb backtrace of Fig 1d on the fiber machine —
    unwinding from the callback, across the C frames, through both
    handlers to main — and validates the unwind tables against the
    shadow stack over the whole program suite, as the paper did with
    the tool of Bastian et al. *)

val meander_backtrace : unit -> string
(** The formatted backtrace captured at the [raise E1] point. *)

val report : ?quick:bool -> unit -> string
