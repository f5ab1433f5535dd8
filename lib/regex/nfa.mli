(** Thompson construction and NFA simulation.

    A regex is compiled to a program of [Consume]/[Split]/[Jmp]/[Accept]
    instructions (Thompson, 1968; the "Pike VM" layout).  Simulation runs
    all threads in lockstep, so matching is O(input × states) with no
    backtracking blow-up. *)

type t

val compile : Syntax.t -> t

val match_at : t -> string -> int -> int option
(** [match_at t s pos] is [Some e] when the regex matches [s] between
    [pos] (inclusive) and [e] (exclusive), with [e] the {e longest} such
    end; [None] when no match starts at [pos]. *)

val can_start : t -> char -> bool
(** [can_start t c] is false only if no match can begin with byte [c];
    used to skip positions quickly when scanning. *)

val nullable : t -> bool
(** Whether the regex accepts the empty string. *)
