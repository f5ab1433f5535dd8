(** Differential oracle: run one program on all three models and diff
    the normalised outcomes.

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
  fib : Outcome.t;
  nat : Outcome.t;
  pairs : (string * verdict) list;
      (** ["semantics<->fiber"], ["fiber<->native"],
          ["semantics<->native"] *)
  audit_checks : int;
  audit_visits : int;  (** audit work: {!Retrofit_fiber.Audit.audit_visits} *)
  audit_violations : (string * string) list;
  dwarf_probes : int;
  dwarf_failures : string list;
}

val run :
  ?fib_fuel:int ->
  ?audit:bool ->
  ?dwarf_seed:int ->
  ?fiber_config:Retrofit_fiber.Config.t ->
  ?sem_one_shot:bool ->
  ?with_native:bool ->
  Retrofit_fiber.Ir.program ->
  report
(** [sem_one_shot] defaults to [true] so the §4 machine enforces the
    same one-shot discipline as the other two models; pass [false] to
    deliberately reintroduce multi-shot semantics (used by the
    mutation-catching tests and by multishot campaigns).

    [with_native] defaults to [true]; pass [false] to drop the native
    leg — its outcome is recorded as [Fuel_out] so every pair involving
    it is skipped.  Multishot campaigns need this: host continuations
    are genuinely one-shot, so the native backend cannot execute
    programs that resume twice. *)

val ok : report -> bool

val to_string : report -> string
