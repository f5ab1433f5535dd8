(** The cooperative lightweight-thread scheduler of §3.1.

    Threads are continuations queued in a run queue; [Fork] spawns a
    thunk as a new thread, [Yield] reschedules the current one, and
    [Suspend] parks the current thread, handing its resumer to arbitrary
    synchronisation code (this is how {!Mvar} blocks threads).

    The scheduling policy is a parameter: the paper observes that
    changing the run queue from FIFO to LIFO changes the scheduling
    algorithm without touching any other code.  {!Chaos} extends the
    same idea adversarially: a seeded chaos policy perturbs dequeue
    order, stashes resumes, injects spurious wakeups, and kills opted-in
    fibers at suspension points — all deterministically in the seed.

    Cancellation follows §2.3: {!fork_cancellable} returns a [cancel]
    handle that [discontinue]s the fiber with {!Cancelled} at its
    current (or next) suspension point, exactly once.  The discontinued
    fiber unwinds through its own cleanup handlers — the §3.2 [copy]
    pattern of closing resources on any exception keeps working — and
    its parked resumer becomes a no-op. *)

type policy = Fifo | Lifo

type 'a resumer = 'a -> unit
(** Resuming a parked thread: enqueues it, does not run it inline. *)

exception Cancelled
(** Raised at the suspension point of a fiber that has been cancelled
    via the handle returned by {!fork_cancellable}. *)

exception Killed
(** Raised at the suspension point of a fiber destroyed by the chaos
    engine (or by a supervisor's force-kill).  Unlike {!Cancelled} this
    is an {e abnormal} exit: supervisors restart on it, and the server
    crash barriers let it pass through rather than counting a 500. *)

exception One_shot
(** Raised by a resumer invoked a second time (continuations are
    one-shot, §5.2).  A resumer whose suspension was {e cancelled} is a
    no-op instead: the cancel consumed the continuation, so a late
    resume has nothing left to do and must not crash the resuming
    code. *)

type runner
(** The machinery of {!run} (see "The runner" below). *)

(** The cancellation control cell shared between a fiber's runner and
    its cancel handle.  Exposed so that other runners (notably {!Aio})
    can implement the same protocol for their own blocking points. *)
module Ctl : sig
  type t

  val create : unit -> t

  val finish : t -> unit
  (** Mark the fiber completed; cancel becomes a no-op. *)

  val cancelled : t -> bool
  (** Has cancel been requested? *)

  val set_parked : t -> (exn -> unit) -> unit
  (** Install the discontinue hook for a runner's own blocking point
      (a {!suspend} parks its waiter on the cell by itself). *)

  val set_killable_cell : t -> bool -> unit
  (** Flip the chaos opt-in flag on the cell directly; runners use this
      to serve the {!Set_killable} effect. *)

  val clear_parked : t -> unit

  val set_cleanup : t -> (unit -> unit) -> unit
  (** Install a hook fired exactly once if the fiber is cancelled (or
      chaos-killed) before its current suspension resumes: wait queues
      use it to purge the dead waiter eagerly.  Cleared automatically
      when the suspension resumes normally. *)

  val clear_cleanup : t -> unit

  val run_cleanup : t -> unit
  (** Fire and clear the cleanup hook, if any.  Runners call this when a
      fiber dies abnormally ({!Killed}) without going through
      {!cancel}. *)

  val cancel : t -> unit
  (** Request cancellation: fires the cleanup hook, then discontinues
      the parked suspension with {!Cancelled} if the fiber is suspended,
      otherwise marks it for discontinuation at its next suspension
      point.  One-shot; a no-op after the fiber finishes or after a
      previous cancel. *)

  val arm : runner -> t option -> ('a, unit) Effect.Deep.continuation -> 'a resumer
  (** [arm r ctl k] wires one suspension point of [k] under [ctl] and
      returns its one-shot resumer: the first use enqueues the resume,
      a second raises {!One_shot}, any use after cancellation is a
      no-op.  While the suspension is parked, [ctl]'s cancel
      discontinues it. *)
end

(** Seeded adversarial scheduling.  All draws come from one xoshiro
    stream at sites whose order is fixed by the deterministic scheduler,
    so a chaos run is a pure function of (workload seed, chaos seed):
    double runs are byte-identical.  With [chaos] absent every code path
    below is untouched — the frozen cost counters stay bit-identical. *)
module Chaos : sig
  type t = {
    seed : int;
    kill_rate : float;  (** P(kill a killable fiber at a suspension point) *)
    delay_rate : float;  (** P(stash a resume for a few scheduler ops) *)
    max_delay : int;  (** max stash duration, in dequeue steps *)
    reorder_rate : float;  (** P(dequeue an adversarial position instead) *)
    spurious_rate : float;  (** P(inject a spurious wakeup alongside a push) *)
  }

  val default : seed:int -> t

  type stats = { kills : int; delays : int; reorders : int; spurious : int }

  type state
  (** Mutable per-run chaos state: the rng stream, the stash of delayed
      resumes, and the injection counters. *)

  val make : t -> state
  (** Also registers the state as the latest for {!chaos_stats}. *)

  val hit : state -> float -> bool
  (** [hit st rate] draws one decision that holds with probability
      [rate] from the state's stream; no draw when [rate] is 0. *)

  val snapshot : state -> stats

  val kill_draw : state option -> Ctl.t option -> bool
  (** Draw a kill decision for a fiber about to park: [true] only for a
      live, killable, not-yet-cancelled cell under an active chaos
      state.  Counts and emits the injection when it fires. *)
end

val chaos_stats : unit -> Chaos.stats option
(** Injection counts of the most recent (or current) chaos-enabled
    {!run} / {!Aio} run; [None] before any chaos run. *)

(** The scheduler effects are public so that other runners (notably
    {!Aio}) can handle them alongside their own — an effect declared
    once composes with any handler that chooses to serve it. *)
type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Fork_cancellable : (unit -> unit) -> (unit -> unit) Effect.t
  | Set_killable : bool -> unit Effect.t
  | Current_ctl : Ctl.t option Effect.t

val fork : (unit -> unit) -> unit
(** Must run inside {!run}. *)

val fork_cancellable : (unit -> unit) -> unit -> unit
(** [fork_cancellable f] spawns [f] like {!fork} and returns a
    [cancel] handle.  Calling it discontinues the fiber with
    {!Cancelled} at its current suspension (or its next one, if it is
    not currently parked), exactly once; calling it after the fiber has
    completed, or a second time, is a no-op. *)

val yield : unit -> unit

val suspend : ('a resumer -> unit) -> 'a
(** [suspend f] parks the current thread and calls [f resumer]; the
    thread continues (with the value passed to the resumer) after some
    other code invokes it.  Invoking a resumer twice raises
    {!One_shot}; invoking it after the suspension was cancelled is a
    no-op. *)

val set_killable : bool -> unit
(** Opt the current fiber in (or out) of chaos kills.  Only fibers that
    opted in — supervised workers and nursery children, which have a
    restart / unwind story — are ever killed; bare fibers are not.
    A no-op outside {!run} / {!Aio}. *)

val current_ctl : unit -> Ctl.t option
(** The control cell of the calling fiber, if it was spawned with
    {!fork_cancellable}.  Wait queues capture it {e before} parking to
    register an eager-purge cleanup.  [None] for plain fibers or
    outside a runner. *)

val run :
  ?policy:policy ->
  ?chaos:Chaos.t ->
  ?clock:(unit -> int) ->
  ?idle:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** Runs the main thread and every forked descendant to completion.
    An exception escaping any thread aborts the whole scheduler run,
    except {!Cancelled} leaving a cancelled fiber and {!Killed} leaving
    a chaos-killed one, which are normal exits.

    [chaos] switches the run queue to the seeded adversarial policy.
    [clock] is the virtual clock used (only when tracing or metrics are
    enabled) to stamp runnable-enqueue instants: every enqueue records
    how long the thunk sat runnable before running, as a [Wakeup] event
    tagged with its cause (yield / fork / wakeup / cancel / kill) and a
    [scheduler_runnable_wait_ns] histogram sample.  An unclocked run
    stamps every instant 0; pass the driving event loop's clock when
    one exists.  [idle] is called when the run queue is empty;
    returning [true] retries (use it to advance a virtual-time event
    loop that will resume parked fibers), [false] ends the run. *)

val stats_switches : unit -> int
(** Context switches performed by the most recent [run]; used by the
    scheduling experiments. *)

(** {1 The runner}

    The machinery of {!run}, for the other runner of this library
    ({!Aio}), which serves its own I/O effects beside the scheduler
    effects.  A runner owns a ring-buffer run queue (FIFO or LIFO), the
    chaos state and the control cell of the running fiber, and one
    effect handler serves all of its fibers. *)

val runner_create :
  ?policy:policy -> ?chaos:Chaos.t -> clock:(unit -> int) -> by_ops:bool -> unit -> runner
(** [policy] defaults to [Fifo].  [by_ops] runners stamp their run-queue depth track by
    enqueue/dequeue count and count {!stats_switches}, as {!run} does;
    the others stamp each push by [clock]. *)

val runner_length : runner -> int
(** Entries in the run queue, not counting chaos-stashed resumes. *)

val runner_current : runner -> Ctl.t option
(** The control cell of the running fiber. *)

val runner_kill_draw : runner -> Ctl.t option -> bool
(** Draw a chaos kill for a fiber about to park: [true] only for a
    live, killable, not-yet-cancelled cell under chaos.  Counts and
    emits the injection when it fires. *)

val runner_continue :
  runner -> string -> Ctl.t option -> ('a, unit) Effect.Deep.continuation -> 'a -> unit
(** [runner_continue r reason ctl k v] enqueues the resume of [k] with
    [v] under [ctl]; [reason] tags the runnable-wait trace event. *)

val runner_discontinue :
  runner -> string -> Ctl.t option -> ('a, unit) Effect.Deep.continuation -> exn -> unit

val runner_next : runner -> unit
(** Run the next entry, or call the idle hook when there is none. *)

val runner_handle :
  runner -> 'c Effect.t -> (('c, unit) Effect.Deep.continuation -> unit) option
(** Serve the scheduler effects; [None] for any other. *)

val runner_retc : runner -> unit -> unit

val runner_exnc : runner -> exn -> unit

val runner_run :
  runner -> ?handler:(unit, unit) Effect.Deep.handler -> idle:(unit -> bool) -> (unit -> unit) -> unit
(** Run [main] and its descendants under [handler] (default:
    [runner_retc], [runner_exnc] and [runner_handle]).  [idle] is
    called when the run queue is empty: [true] retries, [false] ends
    the run. *)
