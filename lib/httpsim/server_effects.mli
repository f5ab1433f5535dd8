(** Thread-per-request server on effect handlers (the MC server).

    Every request runs in its own fiber, written in direct style: it
    performs an I/O-readiness effect where a real server would block on
    the socket, parses the request, runs the application handler and
    serialises the response.  The paper's point — a backtrace exists per
    request because each has a stack — is demonstrated by
    {!request_backtrace_demo} in the examples. *)

type _ Effect.t += Io_ready : unit Effect.t

val process_raw : string -> string
(** Handle one raw request through the fiber machinery.  Never raises:
    a handler exception is stopped at the fiber boundary (the handler's
    [exnc] crash barrier) and answered with a 500. *)

val process_raw_with : ?pre:(unit -> unit) -> string -> string
(** Like {!process_raw}, but runs [pre] inside the crash barrier,
    between the socket wait and the parse — the supervised simulation
    injects the request's service time there as a cooperative sleep.
    The barrier distinguishes crashes from asynchronous terminations:
    an exception escaping the handler still becomes a 500, but a
    {!Retrofit_core.Sched.Cancelled} or {!Retrofit_core.Sched.Killed}
    unwind re-raises (cancelled ≠ crashed). *)
