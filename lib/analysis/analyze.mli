(** Analyzer driver: index, linearity, effect dataflow, the must pass,
    and the red-zone audit, assembled into one {!Diag.report}.

    Program-level verdicts compose two soundness directions.  The flow
    analyses over-approximate, so their negative answer is a [Safe]
    claim: the outcome cannot happen in any execution, under any
    resume discipline.  The must pass runs the (closed, deterministic)
    program in a bounded concrete interpreter under the one-shot
    discipline; when it terminates within budget, [May] sharpens to
    [Must] for the observed outcome and to [Safe] for the other.  After
    a one-shot violation a multi-shot runtime diverges from that unique
    execution, so multi-shot claims should use the [flow_*] fields,
    which remain sound for every discipline. *)

type must = M_value | M_raises of string | M_unknown

type result = {
  report : Diag.report;
  flow_unhandled_may : bool;
      (** ["Unhandled"] escapes [main] in the over-approximation *)
  flow_one_shot_may : bool;
  must : must;
  hit_violation : bool;
      (** the must pass resumed a dead continuation: its execution is
          only valid under the one-shot discipline from that point *)
  resolve : Resolve.t;  (** per-perform-site handler resolution *)
  cost : Costbound.t;  (** whole-program cost bounds *)
  compiled : Retrofit_fiber.Compile.compiled;
      (** the compiled form the index and every pass (and any
          red-zone audit or runtime map) ran against *)
}

val refine : flow_may:bool -> must:must -> string -> Diag.verdict
(** The program-level verdict for one outcome label: [Must] when the
    must pass raised [label], else [Safe] when the flow analysis rules
    the label out or the must pass settled on another outcome, else
    [May].  A caller whose runtime the must pass's execution does not
    predict (a multishot one, past a one-shot violation) passes
    [M_unknown], leaving the flow fact alone. *)

val analyze :
  cfun_model:(string -> Cfg.cfun_model) ->
  ?multishot:bool ->
  ?compiled:Retrofit_fiber.Compile.compiled ->
  ?lints:bool ->
  Retrofit_fiber.Ir.program ->
  result
(** [compiled], when given, must be the compiled form of the program
    being analyzed; the {!Cfg} index is built on it, and it is stored
    in the result instead of compiling afresh.  Callers that compile the
    program anyway to execute it (the conformance campaign, benches)
    pass it here so the compile is not paid twice.

    [lints] (default [true]) controls construction of the per-site
    {!Diag.t} findings, which involves rendering sites and call paths;
    with [lints:false] the [report.diags] list is empty while every
    program-level verdict, flow fact, resolution and cost claim is
    still computed.  The conformance campaign — which cross-checks
    claims, not lint renderings — runs with lints off.

    [multishot] (default [false]) targets a runtime that clones
    continuations on resume: {!Diag.May_resume_twice} findings carry a
    [Safe] verdict, resume sites stop counting as ["Invalid_argument"]
    sources for the [one_shot] verdict, and a must-pass execution that
    hit a one-shot violation is discarded rather than used to sharpen
    (the interpreter's own continuations are one-shot, so past that
    point it diverges from the cloning runtime). *)

val lint :
  cfun_model:(string -> Cfg.cfun_model) -> Retrofit_fiber.Ir.program -> Diag.report
(** [analyze] plus the §5.2 red-zone audit over the compiled form, at
    the paper's 16-word red zone. *)
