(** Direct execution on native OCaml 5 effects.

    Fragment programs are interpreted over real [Effect.Deep] fibers
    through the paper-shaped API in {!Retrofit_core.Eff}: [Handle]
    installs a deep [match_with] handler, [Perform]/[Continue]/
    [Discontinue] use the runtime primitives, and a
    {!Fragment.callback} runs its target under a
    barrier handler that discontinues any effect with an "Unhandled"
    exception — modelling §3.1's rule that effects do not cross C
    frames, since the interpreter has no real C frames to block them
    with.  Native failure modes are translated at the raising site:
    [Effect.Unhandled] → the "Unhandled" exception at the perform
    site, [Continuation_already_resumed] → "Invalid_argument" at the
    resume site, exactly as the other two models behave. *)

val run : Retrofit_fiber.Ir.program -> Outcome.t
(** Fuel: 10 million interpreted nodes. *)
