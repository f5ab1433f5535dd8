(** The conformance fragment of the fiber machine's source language.

    The differential fuzzer generates, shrinks and runs
    {!Retrofit_fiber.Ir} programs directly, but only the part of the
    language that all three backends (the §4 semantics, the §5 fiber
    machine and native OCaml effects) can express: first-order,
    integer-typed, with no [Mod], [Ne] or [Repeat], and external calls
    only through the two C functions built by {!ext_id} and
    {!callback}.

    As in the fiber machine, handler cases are named functions.  A
    function is an {e effect case} when some handler's [effcs] names it
    or when it resumes its second parameter; that parameter binds the
    captured continuation and may only appear as the [Var k] operand of
    [Continue]/[Discontinue].  Functions may reference earlier-defined
    functions or themselves (general recursion), which keeps the
    semantics lowering to nested [let rec]s faithful. *)

module Ir := Retrofit_fiber.Ir

(** {1 External calls} *)

val ext_id : Ir.expr -> Ir.expr
(** Identity through an external C call: the argument crosses to the C
    stack and back. *)

val callback : string -> Ir.expr -> Ir.expr
(** [callback f e] calls the named 1-argument function back from C:
    OCaml → C → OCaml, with a handler-less boundary in between. *)

type cfun =
  | Ext_id  (** the C function {!ext_id} calls *)
  | Callback of string  (** the C function [callback f] calls: re-enters [f] *)
  | Foreign  (** any other name *)

val cfun : string -> cfun
(** Reads back the C-function name of an [Extcall]; the only decoder of
    the encoding {!ext_id} and {!callback} use. *)

(** {1 Size and well-formedness} *)

val program_nodes : Ir.program -> int
(** Expression nodes summed over every function body — the size measure
    the shrinker minimises and the "≤ N node repro" criterion counts.
    The continuation operand of a [Continue]/[Discontinue] is part of
    that node, and an external call counts as one node plus its
    arguments. *)

val validate : Ir.program -> (unit, string) result
(** Membership in the fragment and well-formedness: unique function
    names; a 0-argument main that is no effect case; effect cases take
    exactly two parameters and are referenced only from [effcs]; calls,
    handler cases and callbacks reference earlier-defined plain
    functions (or, for calls, the function itself) with matching arity;
    variables are bound; [Continue]/[Discontinue] consume exactly the
    enclosing effect case's continuation parameter, which is never used
    as an integer.  Generator output always validates; the shrinker
    discards candidates that do not. *)
