(** Canonical programs for the fiber machine.

    These cover the micro benchmarks of Table 1 (exception install/raise
    loops, external-call and callback loops, and the recursive programs
    ack, fib, motzkin, sudan and tak), the meander example of Fig 1, and
    effect-handler exercises used by the tests and by the DWARF
    demonstrations.

    The machine performs no tail-call optimisation, so iteration loops
    recurse; iteration counts are chosen by the caller and kept moderate
    (the instruction-count ratios the experiments report are
    insensitive to the count). *)

val ack : m:int -> n:int -> Ir.program

val fib : n:int -> Ir.program

val tak : x:int -> y:int -> z:int -> Ir.program

val motzkin : n:int -> Ir.program
(** Naive doubly recursive Motzkin numbers. *)

val sudan : ?iters:int -> n:int -> x:int -> y:int -> unit -> Ir.program
(** [iters] repeats the computation in a loop (default 1), so stack
    growth amortises as it does in a long-running program. *)

val exnval : iters:int -> Ir.program
(** Install an exception handler and return a value, [iters] times. *)

val exnraise : iters:int -> Ir.program
(** Install a handler and raise into it, [iters] times. *)

val extcall : iters:int -> Ir.program
(** Call the C identity function [iters] times; requires the
    {!c_identity} implementation. *)

val callback : iters:int -> Ir.program
(** Call a C function that calls back into an OCaml identity function,
    [iters] times; requires {!c_callback_impl}. *)

val meander : Ir.program
(** Fig 1: OCaml installs handlers for E1 and E2, calls C, C calls back
    into OCaml, the callback raises E1; the program evaluates to 42.
    Requires {!standard_cfuns}. *)

val effect_roundtrip : iters:int -> Ir.program
(** The annotated sequence of §6.3: install a handler, perform, handle,
    resume, return — [iters] times. *)

val effect_depth : depth:int -> iters:int -> Ir.program
(** Perform through [depth] non-matching handlers (reperform chain). *)

val counter_effect : upto:int -> Ir.program
(** A get/put-style effect used as an integration test; evaluates to the
    triangular number of [upto]. *)

val one_shot_violation : Ir.program
(** Resumes a continuation twice; the second resume must raise
    [Invalid_argument] (§3.1). *)

val unhandled_effect : Ir.program
(** Performs an effect with no handler; must end with an uncaught
    [Unhandled] exception. *)

val discontinue_cleanup : Ir.program
(** The handler discontinues; the performer's try/with cleans up and the
    program evaluates to 42 (§3.2). *)

val deep_recursion : depth:int -> Ir.program
(** Forces repeated stack growth inside a handler fiber. *)

val effect_in_callback : Ir.program
(** Performs an effect under a callback: the effect must not cross the C
    boundary, so Unhandled is raised and caught by the OCaml caller,
    evaluating to 7.  Requires {!standard_cfuns}. *)

(** {1 C function implementations} *)

val c_identity : string * Machine.cfun
(** ["c_id"]: returns its single argument. *)

val c_callback_impl : string * Machine.cfun
(** ["c_cb"]: calls back into the OCaml function ["ocaml_id"] with its
    argument. *)

val standard_cfuns : (string * Machine.cfun) list
(** The two above, and ["ocaml_to_c"], which calls back into
    ["c_to_ocaml"], as in Fig 1b. *)

val cross_resume : Ir.program
(** A continuation captured by one handler is resumed from inside a
    different fiber; evaluates to 42.  Exercises parent re-linking at
    resume (§5.4) and the unwinder's view of it. *)

val multishot_choice : Ir.program
(** Resumes one continuation twice: [Invalid_argument] under the
    default one-shot discipline, 30 under {!Config.with_multishot}
    (matching the multi-shot operational semantics of §4). *)

val nqueens : n:int -> Ir.program
(** Backtracking n-queens via a multishot [Pick] effect: the handler
    resumes each captured continuation once per column, so the handle
    evaluates to the solution count (2 for [n=4], 10 for [n=5], 4 for
    [n=6]).  Requires {!Config.with_multishot}; under the one-shot
    discipline the second resume raises [Invalid_argument]. *)

val suspended_requests : n:int -> Ir.program
(** Parks [n] requests on a Wait effect without resuming them, then
    calls the C function ["list_pending"]; the test registers an
    implementation that snapshots every suspended continuation's
    backtrace (§6.3.4). *)
