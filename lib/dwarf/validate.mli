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

val check_now : Table.t -> Retrofit_fiber.Machine.t -> (unit, string) result
(** Unwind at the current machine state and compare against the shadow
    backtrace. *)

val checker : Table.t -> Retrofit_fiber.Machine.t -> (unit, string) result
(** [checker table] is [check_now table] with a name buffer kept across
    its calls, so repeated probes of one run allocate no backtrace. *)

val probe_every : int -> Table.t -> (Retrofit_fiber.Machine.t -> unit) * report ref
(** [probe_every n table] returns an [on_call] hook that validates every
    [n]th call, together with the report it fills in.  Pass the hook to
    {!Retrofit_fiber.Machine.run}. *)

val run_validated :
  ?cfuns:(string * Retrofit_fiber.Machine.cfun) list ->
  ?every:int ->
  Retrofit_fiber.Config.t ->
  Retrofit_fiber.Compile.compiled ->
  Retrofit_fiber.Machine.outcome * report
(** Compile-time convenience: build the table, run the program with
    validation probes, and return the outcome with the report. *)
