(** Monadic callback server (the lwt baseline of §6.3.4).

    The same request logic as {!Server_effects} but as a promise chain:
    parsing and handling are [bind]-sequenced callbacks with a [pause]
    where the socket wait would be.  There is no per-request stack —
    the property the paper contrasts with the effect version. *)

val process_raw : string -> string
(** Never raises: a handler exception fails the promise and is caught
    into a 500 (the crash barrier, [L.catch]). *)

val process_raw_with : ?pre:(unit -> unit) -> string -> string
(** Like {!process_raw} with [pre] (the simulated service time) run
    inside the promise chain.  {!Retrofit_core.Sched.Cancelled} and
    {!Retrofit_core.Sched.Killed} re-raise out of the recovery callback
    instead of resolving to a 500: cancelled ≠ crashed. *)
