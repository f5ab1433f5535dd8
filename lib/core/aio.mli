(** Asynchronous I/O via effects: the run functions of §3.1.

    Client code performs [In_line]/[Out_str] through {!input_line} and
    {!output_string} — the same signatures as the standard library — and
    composes with {!Sched.fork} and {!Sched.yield}.  The choice between
    blocking and asynchronous I/O is made {e solely} by the runner:

    - {!run_sync} services each read by blocking (advancing virtual
      time) while every other thread waits;
    - {!run_async} parks readers, lets other threads run, and only
      advances time when all threads are blocked — the paper's
      [pending_reads]/[do_reads] structure.

    Requirement R4 (forwards compatibility) is thus observable: the
    same client code, run under [run_async], overlaps its I/O; virtual
    completion times prove it (see the tests and the async_io example).

    Exceptional completions use [discontinue]: end of input raises
    [End_of_file] and closed channels [Sys_error] at the perform site,
    so defensive resource-cleanup code written for blocking I/O (§3.2)
    keeps working.  Cancellation uses the same mechanism: a fiber
    spawned with {!Sched.fork_cancellable} under {!run_async} can be
    cancelled while parked — in a [Suspend] {e or} in a pending read —
    and is discontinued with {!Sched.Cancelled}, running its cleanup
    handlers; its resumer (or read completion) becomes a no-op.
    A resumer invoked twice raises {!Sched.One_shot}, as under
    {!Sched.run}. *)

val input_line : Chan.ic -> string
(** Performs [In_line]; must run under one of the runners. *)

val output_string : Chan.oc -> string -> unit
(** Performs [Out_str]. *)

val run_sync : Evloop.t -> (unit -> unit) -> unit
(** Also handles {!Sched.Fork}, {!Sched.Yield}, {!Sched.Suspend} and
    {!Sched.Fork_cancellable}, so threads, MVars and cancellation work
    under it.  Reads block inline, so a sync read cannot be cancelled
    mid-wait.  Both runners schedule FIFO, without chaos. *)

val run_async : Evloop.t -> (unit -> unit) -> unit

type timeout_status = [ `Running | `Done | `Cancelled ]

val timeout : Evloop.t -> delay:int -> (unit -> unit) -> unit -> timeout_status
(** [timeout loop ~delay f] forks [f] cancellably and registers a
    virtual-time timer that cancels it if it is still running [delay]
    ns later; built on {!Sched.fork_cancellable} exactly as §2.3
    prescribes.  Returns a status thunk.  Must be called from inside a
    runner.  The timer only fires when the event loop advances, i.e.
    when all threads are parked on I/O (the only situation in which
    virtual time passes). *)

val copy : Chan.ic -> Chan.oc -> unit
(** The §3.2 copy loop, verbatim in structure: reads lines until
    [End_of_file], closing both channels on all exits and re-raising
    unexpected exceptions.  Works unchanged under both runners, and —
    because the cleanup is exception-driven — releases its channels
    when cancelled mid-read. *)
