(** Process-wide virtual clock (integer nanoseconds, deterministic).

    The observability layer stamps events from this clock whenever a
    site does not pass an explicit virtual timestamp of its own.  It
    never consults the host clock, and nothing advances it: every
    simulated workload passes its own timestamps. *)

val now : unit -> int
