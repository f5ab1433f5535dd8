(** Lowering to the §5 runtime model (the {!Retrofit_fiber} machine).

    The IR maps near-directly onto the fiber machine's source language.
    [Ext_id] becomes an external call to a registered identity C
    function; [Callback f] becomes an external call whose C
    implementation re-enters the machine through [ctx.callback],
    exercising the §5.3 boundary (context word, boundary trap, blanked
    handler_info).  Runs carry a per-step {!Retrofit_fiber.Machine}
    auditor and, when [dwarf_seed] is given, DWARF unwind round-trips
    at randomly sampled call sites via {!Retrofit_dwarf.Validate}. *)

type result = {
  outcome : Outcome.t;
  audit_checks : int;  (** full invariant passes performed *)
  audit_violations : (string * string) list;
  dwarf_probes : int;  (** sampled unwind round-trips *)
  dwarf_failures : string list;
  counters : Retrofit_util.Counter.t;
}

val lower : Ir.program -> Retrofit_fiber.Ir.program

val ext_id_cfun : string
(** Name of the C identity stub [Ext_id] lowers to. *)

val callback_cfun : string -> string
(** [callback_cfun f] — name of the C stub [Callback f] lowers to; the
    stub re-enters the machine through [f]. *)

val run :
  ?config:Retrofit_fiber.Config.t ->
  ?fuel:int ->
  ?audit:bool ->
  ?dwarf_seed:int ->
  ?dwarf_max_probes:int ->
  ?on_perform:(site:int -> eff:int -> handler:int -> unit) ->
  Ir.program ->
  result
(** Defaults: {!Retrofit_fiber.Config.mc}, 20-million-op fuel, the
    auditor on its fixed schedule ({!Retrofit_fiber.Machine.audit}), no
    DWARF sampling.  When a [dwarf_seed] is given, about one call in
    eight is probed, up to [dwarf_max_probes] (default 500) per program
    — each probe unwinds the whole stack, so an unbounded rate would be
    quadratic on deep fuel-bound runs.  Pass
    [Config.with_multishot true Config.mc] to disable the one-shot
    check — the canonical seeded mutation the fuzzer must catch.

    [on_perform] is threaded to {!Retrofit_fiber.Machine.run}: it fires
    once per dynamic perform with the [PerformI] pc, the effect id, and
    the handle-descriptor index of the matching handler fiber (-1 at a
    handler-less boundary) — the observation stream the handler
    resolution soundness check consumes. *)
