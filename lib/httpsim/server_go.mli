(** Go-model server: one goroutine per request.

    Goroutines are modelled as closures on a run queue with
    channel-style result delivery — the structure of [net/http]'s
    handler dispatch, minus preemption (requests here never block
    mid-handler). *)

val process_raw : string -> string
(** Never raises: a panicking handler goroutine is recovered into a 500
    (the crash barrier). *)

val process_raw_with : ?pre:(unit -> unit) -> string -> string
(** Like {!process_raw} with [pre] (the simulated service time) run
    inside the recover barrier.  {!Retrofit_core.Sched.Cancelled} and
    {!Retrofit_core.Sched.Killed} re-raise instead of recovering to a
    500: cancelled ≠ crashed. *)
