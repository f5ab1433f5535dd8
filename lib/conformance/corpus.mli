(** Hand-written edge-case programs with traced expected outcomes.

    These are the seed corpus for the fuzzer: each entry is replayed
    through the oracle before any generated programs run, and its
    native outcome is additionally pinned to [expect] so a bug that
    shifts all three models in lockstep still fails.  The battery
    covers the one-shot / discontinue corners called out in the issue
    (double-resume after a normal return, discontinue of a
    never-resumed continuation, effects raised in a handler's return
    branch) plus division payloads, callbacks-as-effect-barriers,
    reperform chains, exceptions crossing handlers, and a
    deep-recursion capture. *)

type entry = {
  name : string;
  note : string;
  program : Retrofit_fiber.Ir.program;
  expect : Outcome.t;
}

val entries : entry list
