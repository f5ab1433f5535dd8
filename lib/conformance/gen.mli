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
      continuation) when [oneshot_violations] is on;
    - unhandled effects (performs outside any matching handler);
    - recursion: functions may call themselves with a structurally
      decreasing counter; one call site per program may draw a
      [big_count]-sized counter, deep enough to force fiber growth;
    - external calls and callbacks ({!Fragment.ext_id}/
      {!Fragment.callback}) when [extcalls] is on.

    Termination is structural: every call targets an earlier function
    or the caller itself with a strictly smaller first argument, and
    recursion counters are literals, so generated programs cannot
    diverge (they can still exhaust fuel, which the oracle treats as
    inconclusive). *)

type cfg = {
  max_fns : int;  (** helper functions generated before main *)
  max_depth : int;  (** expression tree depth *)
  small_count : int;  (** bound for nested recursion counters *)
  big_count : int;
      (** base for the one deep-recursion driver allowed per program,
          sized to overflow [Config.mc]'s initial fiber several times *)
  extcalls : bool;
  oneshot_violations : bool;
}

val default_cfg : cfg

val gen : ?cfg:cfg -> Retrofit_util.Rng.t -> Retrofit_fiber.Ir.program

val program_of_seed : ?cfg:cfg -> int -> Retrofit_fiber.Ir.program
(** [gen] on a fresh generator seeded with the given value — the replay
    entry point: a counterexample is reproducible from its seed
    alone. *)
