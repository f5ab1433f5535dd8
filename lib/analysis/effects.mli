(** Whole-program handled-effect dataflow: the escape fixpoint.

    Bottom-up over the {!Cfg} index, it computes per function the
    effect labels that may be performed and escape its extent, and the
    exception labels that may be raised out of it — {!Bits} over the
    compiler's label ids, in an array indexed by function id.  The runtime's
    synthetic exceptions are ordinary labels here: ["Unhandled"] is
    injected at perform sites that {!Resolve.boundary} marks as possibly
    bare (no handler up to the toplevel or a §5.3 callback barrier),
    ["Invalid_argument"] at resume sites the {!Linearity} pass flags as
    possibly-second, ["Division_by_zero"] at non-literal divisions.  A
    resume site also releases what the reinstated body can still do.
    The top-down handler context is not computed here: {!Resolve} is the
    one handler-context fixpoint, and this pass reads its boundary facts.

    The sets over-approximate: a [Safe] derived from them claims the
    behaviour is impossible in every execution, which the conformance
    fuzzer cross-checks against all backends. *)

type t

val analyze : multishot:bool -> Cfg.t -> Linearity.t -> Resolve.t -> t
(** [multishot] analyzes for a runtime that clones continuations on
    resume: resume sites stop injecting ["Invalid_argument"], and
    {!Diag.May_resume_twice} findings are reported with a [Safe] verdict
    — the shape is still worth flagging, but a second resume is legal.
    The {!Resolve.t} must be built from the same [Cfg.t] and
    [Linearity.t]. *)

val diagnostics : t -> Diag.t list
(** Possibly-unhandled and effect-across-C-frame per perform site,
    dead-handler-clause, may-resume-twice and may-leak per reachable
    installation; deterministically sorted. *)

val unhandled_may : t -> bool
(** ["Unhandled"] escapes [main] — the program's [Unhandled] outcome is
    not excluded. *)

val one_shot_may : t -> bool

val unhandled : string

val invalid_argument : string

val division_by_zero : string
