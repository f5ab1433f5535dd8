(** DWARF unwind validation in the style of Bastian et al. [2].

    The paper validates its unwind tables with an automated tool that
    compares DWARF-computed unwinds against ground truth.  Here the
    ground truth is the machine's shadow stack: at every probed point
    the unwinder's backtrace must equal the shadow backtrace frame for
    frame. *)

type report = {
  probes : int;  (** points at which the stack was unwound *)
  frames : int;  (** total frames compared *)
  mismatches : (string * string list * string list) list;
      (** (context, unwound, shadow) for each failed probe, capped *)
  interp_ops : int;  (** CFI bytecode operations interpreted *)
}

val checker : Table.t -> Retrofit_fiber.Machine.t -> (unit, string) result
(** [checker table machine] unwinds at the current machine state and
    compares against the shadow backtrace.  The partial application
    [checker table] keeps a name buffer across its calls, so repeated
    probes of one run allocate no backtrace. *)

val run_validated :
  ?cfuns:(string * Retrofit_fiber.Machine.cfun) list ->
  Retrofit_fiber.Config.t ->
  Retrofit_fiber.Compile.compiled ->
  Retrofit_fiber.Machine.outcome * report
(** Build the table and run the program with a validation probe at
    every call; return the outcome with the report. *)
