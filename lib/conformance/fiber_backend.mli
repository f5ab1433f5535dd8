(** Execution on the §5 runtime model (the {!Retrofit_fiber} machine).

    Conformance programs are fiber-IR programs, compiled and run as
    they are.  The two fragment C functions get registered stubs:
    {!Fragment.ext_id}'s is the identity, and {!Fragment.callback}'s
    re-enters the machine through [ctx.callback], exercising the §5.3
    boundary (context word, boundary trap, blanked handler_info).
    Runs carry a per-step {!Retrofit_fiber.Machine} auditor and, when
    [dwarf_seed] is given, DWARF unwind round-trips at randomly sampled
    call sites via {!Retrofit_dwarf.Validate}. *)

type result = {
  outcome : Outcome.t;
  audit_checks : int;  (** invariant passes performed *)
  audit_visits : int;
      (** what those passes examined ({!Retrofit_fiber.Audit.audit_visits}) *)
  audit_violations : (string * string) list;
  dwarf_probes : int;  (** sampled unwind round-trips *)
  dwarf_failures : string list;
  counters : Retrofit_util.Counter.t;
}

val cfuns :
  Retrofit_fiber.Compile.compiled -> (string * Retrofit_fiber.Machine.cfun) list
(** The C-function stubs for every fragment C function the compiled
    program calls, as {!Retrofit_fiber.Machine.run} takes them. *)

type compiled
(** A program compiled once for any number of runs: the
    {!Retrofit_fiber.Compile} result (or its error text), the
    C-function stubs ({!cfuns}) and the DWARF unwind table
    ({!Retrofit_dwarf.Table}), built the first time a run samples
    unwinds and shared by every later one.  No run writes into it, so
    one value stands for a fresh compile in each leg of a campaign
    program: the oracle's fiber leg and the policy legs. *)

val compile : Retrofit_fiber.Ir.program -> compiled
(** Never raises: a {!Retrofit_fiber.Compile.Error} is kept, and every
    {!exec} of the value reports it as [Model_error "fiber compile: ..."]. *)

val program : compiled -> Retrofit_fiber.Compile.compiled option
(** The compiled program, [None] when it did not compile. *)

val exec :
  ?config:Retrofit_fiber.Config.t ->
  ?audit:bool ->
  ?dwarf_seed:int ->
  ?on_perform:(site:int -> eff:int -> handler:int -> unit) ->
  compiled ->
  result
(** Runs on 20 million ops of fuel.  Defaults:
    {!Retrofit_fiber.Config.mc}, the auditor on its fixed schedule
    ({!Retrofit_fiber.Audit.audit}), no DWARF sampling.  When a
    [dwarf_seed] is given, about one call in eight is probed, up to 500
    per program — each probe unwinds the whole stack, so an unbounded
    rate would be quadratic on deep fuel-bound runs.  Pass
    [Config.with_multishot true Config.mc] to disable the one-shot
    check — the canonical seeded mutation the fuzzer must catch.

    [on_perform] is threaded to {!Retrofit_fiber.Machine.run}: it fires
    once per dynamic perform with the [PerformI] pc, the effect id, and
    the handle-descriptor index of the matching handler fiber (-1 at a
    handler-less boundary) — the observation stream the handler
    resolution soundness check consumes. *)

val run :
  ?config:Retrofit_fiber.Config.t ->
  ?audit:bool ->
  ?dwarf_seed:int ->
  ?on_perform:(site:int -> eff:int -> handler:int -> unit) ->
  Retrofit_fiber.Ir.program ->
  result
(** [exec] of a fresh [compile]. *)
