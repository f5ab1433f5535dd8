(** Whole-program handled-effect dataflow.

    Two cooperating fixed points over the {!Cfg} index:

    {b Phase A} (top-down) computes, per function and effect label,
    whether the dynamic handler stack above an activation may lack the
    label — and whether the nearest barrier is then the toplevel or a
    §5.3 callback frame.  Contexts flow over calls, into handler bodies
    (minus the labels the installation handles), into case functions
    (which run in the installer's — and after a resume, the resumer's —
    frame), and into callback targets, where the blanked handler chain
    makes every label C-barred.

    {b Phase B} (bottom-up) computes per function the effect labels
    that may be performed and escape its extent, and the exception
    labels that may be raised out of it.  The runtime's synthetic
    exceptions are ordinary labels here: ["Unhandled"] is injected at
    perform sites phase A marks as possibly bare, ["Invalid_argument"]
    at resume sites the {!Linearity} pass flags as possibly-second,
    ["Division_by_zero"] at non-literal divisions.  A resume site also
    releases what the reinstated body can still do.

    Both directions over-approximate: a [Safe] derived from these sets
    claims the behaviour is impossible in every execution, which the
    conformance fuzzer cross-checks against all backends. *)

type t

val analyze : ?multishot:bool -> Cfg.t -> Linearity.t -> t
(** [multishot] (default [false]) analyzes for a runtime that clones
    continuations on resume: resume sites stop injecting
    ["Invalid_argument"], and {!Diag.May_resume_twice} findings are
    reported with a [Safe] verdict — the shape is still worth flagging,
    but a second resume is legal. *)

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
