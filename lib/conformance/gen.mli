(** Seeded generator of well-formed conformance programs: fiber-IR
    programs in the {!Fragment} all three backends run.

    Fully deterministic: the whole program is a function of the seed
    (via {!Retrofit_util.Rng}), so [(seed)] alone replays any generated
    program.  Coverage by construction:

    - perform / continue / discontinue, nested deep handlers,
      reperform chains (handlers missing the performed label);
    - exceptions raised through handlers and caught by [Trywith] cases,
      including the built-in labels;
    - one-shot violations (a [Seq] of two resumes of the same
      continuation);
    - unhandled effects (performs outside any matching handler);
    - recursion: functions may call themselves with a structurally
      decreasing counter; one call site per program may draw a
      counter deep enough to force fiber growth;
    - external calls and callbacks ({!Fragment.ext_id}/
      {!Fragment.callback}).

    Termination is structural: every call targets an earlier function
    or the caller itself with a strictly smaller first argument, and
    recursion counters are literals, so generated programs cannot
    diverge (they can still exhaust fuel, which the oracle treats as
    inconclusive). *)

val program_of_seed : int -> Retrofit_fiber.Ir.program
(** The program generated from a fresh generator seeded with the given
    value — the replay entry point: a counterexample is reproducible
    from its seed alone. *)
