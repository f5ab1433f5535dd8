(** Chameneos-redux (§6.3.2): a concurrency game measuring context
    switching and synchronisation.

    Creatures meet pairwise at a meeting place and mutate colours; the
    game runs a fixed number of meetings.  Synchronisation is by MVars
    in all three implementations, matching the paper's setup:

    - [run_effects]: lightweight threads on the effect scheduler;
    - [run_monad]: the Claessen concurrency monad;
    - [run_lwt]: the Lwt-like promise library.

    Each returns the total number of individual meetings counted by the
    creatures, which must equal [2 * meetings]. *)

val run_effects : meetings:int -> int

val run_monad : meetings:int -> int

val run_lwt : meetings:int -> int
