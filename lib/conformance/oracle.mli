(** Differential oracle: one program's outcomes on all three models,
    diffed.

    Comparison rules:
    - a pair where either side ran out of fuel is {i skipped}
      (inconclusive, not a disagreement);
    - [Model_error] outcomes are never equal to anything, and any
      model error fails the report outright (even if every pair
      skipped);
    - otherwise outcomes must be structurally equal.

    A report also fails if the fiber machine's runtime auditor
    recorded a violation or a sampled DWARF unwind failed to
    round-trip. *)

type verdict = Agree | Skip | Diff

val compare_pair : Outcome.t -> Outcome.t -> verdict
(** The pairwise rule above, exposed so policy-differential campaigns
    can diff extra backend runs under the same conventions. *)

type report = {
  program : Retrofit_fiber.Ir.program;
  sem : Outcome.t;
  fib : Fiber_backend.result;
      (** the fiber leg: outcome, audit and DWARF tallies, counters *)
  nat : Outcome.t;
  pairs : (string * verdict) list;
      (** ["semantics<->fiber"], ["fiber<->native"],
          ["semantics<->native"] *)
}

val judge :
  Retrofit_fiber.Ir.program ->
  sem:Outcome.t ->
  fib:Fiber_backend.result ->
  nat:Outcome.t ->
  report
(** The report of outcomes already in hand; runs nothing.  A campaign
    runs each leg under its own discipline (a multishot campaign's
    semantics machine clones continuations, and its native leg is
    [Fuel_out], so every pair involving it skips) and judges them
    here. *)

val run : ?audit:bool -> ?dwarf_seed:int -> Retrofit_fiber.Ir.program -> report
(** Runs the program on the one-shot semantics machine, on the fiber
    machine under {!Retrofit_fiber.Config.mc} ({!Fiber_backend.run},
    audited unless [audit] is [false], DWARF-sampled when [dwarf_seed]
    is given) and natively, then {!judge}s the outcomes. *)

val ok : report -> bool

val to_string : report -> string
