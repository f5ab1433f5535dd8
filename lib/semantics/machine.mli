(** The abstract machine of Fig 2: top-level, administrative, C and OCaml
    reductions.

    The machine is a CEK machine extended with alternating OCaml/C stack
    segments.  Administrative reductions are common to both segment
    kinds; calls, returns, exceptions and effects dispatch on the kind of
    the current segment, which models external calls, callbacks,
    exception forwarding across C frames, and the rule that effects do
    {e not} cross C frames (an effect reaching the callback's identity
    fiber is turned into an [Unhandled] exception raised at the perform
    site — rule EffUnHn).

    Unlike the one-shot implementation of §5, this semantics is
    multi-shot: continuations are immutable values and may be resumed any
    number of times (§5.2 notes the same about the paper's semantics). *)

type outcome =
  | Step of Syntax.config
  | Done of Syntax.value  (** the program produced a value *)
  | Uncaught of string * Syntax.value
      (** an exception reached the bottom of the stack: fatal_uncaught *)
  | Stuck of string  (** no rule applies; the message names the reason *)

val step : Syntax.config -> outcome
(** One top-level reduction (STEPC or STEPO). *)

type result =
  | Value of Syntax.value
  | Uncaught_exception of string * Syntax.value
  | Stuck_config of string * Syntax.config
  | Out_of_fuel of Syntax.config

val run :
  ?fuel:int -> ?trace:(Syntax.config -> unit) -> ?one_shot:bool -> Ast.t -> result
(** Elaborates, then iterates [step] from the initial configuration.
    [fuel] bounds the number of steps (default 10_000_000); [trace] is
    called on every configuration including the initial one.
    [one_shot] (default false, i.e. the paper's multi-shot semantics)
    overlays §5's linearity restriction: resuming the same continuation
    twice raises ["Invalid_argument"] at the resume site, which is how the
    conformance fuzzer aligns this machine with the one-shot fiber
    runtime and native OCaml effects. *)

val run_string : string -> result
(** Parse and [run] with the default fuel. @raise Invalid_argument on a
    syntax error. *)

val steps_taken : Ast.t -> int * result
(** Like [run] but also counts reduction steps, for the semantics-level
    cost experiments. *)

val result_to_string : result -> string

val int_result : result -> int
(** Extracts an integer value result.  @raise Failure otherwise, with a
    descriptive message — convenient in tests. *)
