(** Lowering to the §4 semantics (the {!Retrofit_semantics} CEK
    machine).

    Functions become a chain of curried [let rec]s (earlier functions
    scope over later ones, matching the fragment's definition-before-use
    rule); [Handle] pre-evaluates its body arguments in [let]s {e
    outside} the installed handler, so an effect or exception raised
    while evaluating an argument escapes the new handler exactly as it
    does in the fiber machine and natively; the two fragment C calls
    ({!Fragment.ext_id}/{!Fragment.callback}) wrap their target in a λᶜ
    so the value round-trips through a C stack segment.  Runs under the
    one-shot discipline by default so all three models share §5's
    linearity. *)

val run : ?one_shot:bool -> Retrofit_fiber.Ir.program -> Outcome.t
(** Runs on 5 million steps of fuel; [one_shot] defaults to [true] (pass
    [false] to re-expose the multi-shot semantics as a seeded
    mutation).  @raise Invalid_argument on a construct outside the
    {!Fragment}. *)
