(** Greedy structural shrinker.

    [minimize ~interesting p] repeatedly tries single-point
    simplifications of [p] — replacing a subexpression by a constant or
    one of its own integer-typed children, dropping individual
    [Trywith] or [Handle] cases, collapsing a [Handle] to a bare call of
    its body — prunes functions unreachable from [main], filters out
    candidates that no longer validate ({!Fragment.validate}), and
    commits the smallest candidate for which [interesting] still holds.
    The loop is greedy and bounded, so it terminates even when
    [interesting] is expensive: every accepted step strictly decreases
    {!Fragment.program_nodes}. *)

val minimize :
  interesting:(Retrofit_fiber.Ir.program -> bool) ->
  Retrofit_fiber.Ir.program ->
  Retrofit_fiber.Ir.program
