(** Whole-program cost-bound analysis over compiled code.

    Derives upper bounds on the paper's cost counters — performs,
    handler installations, resumes, stack switches, per-policy
    grow/commit/check counts, handler-table probes, continuation
    captures — by abstract interpretation of the compiled instruction
    stream, the way {!Redzone} recomputes frame words: per-instruction
    execution multipliers from the compiler's (recognisable) [Repeat]
    loop shape, composed through a widened interprocedural
    invocation-bound fixpoint.  Everything is a sound
    over-approximation; ∞ ([Inf]) means "no finite static bound", never
    "unknown but finite".

    The runtime contract, checked by the conformance campaign: for
    every counter with a finite bound, the measured value of a real
    execution (any stack policy, one-shot or multishot) never exceeds
    it. *)

type bound = Fin of int | Inf

val bound_to_string : bound -> string

val finite : bound -> int option

type t

val analyze :
  cfun_model:Cfg.cfun_model array -> Retrofit_fiber.Compile.compiled -> t
(** [cfun_model] holds each external function's model, indexed like
    the compiled form's [cfun_names].  An executable [Opaque] external
    call collapses every invocation bound to ∞; [Calls_back] is modeled
    as at most one callback per external-call execution — the contract
    the conformance harness's [cb_*] stubs implement. *)

val inv : t -> string -> bound
(** Invocations of the named function per run. *)

type totals = {
  t_performs : bound;
  t_handles : bound;
  t_resumes : bound;
  t_calls : bound;
}

val totals : t -> totals

val counter_bounds :
  t ->
  policy:Retrofit_fiber.Stack_policy.t ->
  multishot:bool ->
  red_zone:int ->
  (Retrofit_util.Counter.name * bound) list
(** One entry per machine counter this pass bounds (the 17 control and
    growth counters), in a fixed order.  Under multishot, if a second
    resume is possible ([R >= 2] with at least one perform) every bound
    is ∞: re-executed cloned suffixes break per-invocation
    accounting. *)

val report : ?multishot:bool -> ?red_zone:int -> t -> string
(** Totals, the per-function invocation table, and the counter-bound
    line for each stack policy. *)

val diagnostics : t -> Diag.t list
(** A [May]-verdict {!Diag.Unbounded_cost} per ∞ whole-program total,
    with the widening cause (opaque call, recursion, non-constant
    loop). *)
