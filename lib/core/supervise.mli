(** Erlang-style supervision trees and Trio-style nurseries over the
    §3.1 scheduler.

    Supervisors are ordinary fibers; each child runs inside an effect
    handler that serves the {!self_path}/{!heartbeat} introspection
    effects and funnels every possible end of the fiber — normal
    return, escaped exception, {!Sched.Cancelled} or {!Sched.Killed}
    unwind — into one exit message to the parent.  Restart strategies,
    restart budgets and escalation are plain message-loop logic: the
    paper's claim that retrofitted handlers make concurrency patterns
    library code, applied to OTP.

    Every child is restarted after an abnormal exit (a crash, or a kill
    its supervisor did not itself request) and never after a normal
    one.  Restarts, escalations and child exits go to the eventlog
    ([Sup_restart], [Sup_escalate], [Sup_child_exit]) and to the
    metrics registry when those are on.

    Time is virtual: pass [clock] (e.g. [Evloop.now loop]) and
    heartbeats and eventlog stamps become deterministic in the seed. *)

exception Escalation of string
(** Raised (internally) by a supervisor whose restart budget is blown;
    carries the supervisor's path.  A parent supervisor sees it as a
    child crash and restarts the whole subtree; at the root it becomes
    {!Gave_up}. *)

type strategy =
  | One_for_one  (** restart only the exited child *)
  | One_for_all  (** kill and restart all children *)
  | Rest_for_one  (** kill and restart the exited child and all started after it *)

type exit_reason = Exit_normal | Exit_crashed of exn | Exit_killed

type outcome = Completed | Gave_up of string

type spec

val worker : string -> (unit -> unit) -> spec
(** A leaf child.  The fiber is opted into chaos kills: it has a
    restart story, after all. *)

val supervisor : ?strategy:strategy -> ?max_restarts:int -> string -> spec list -> spec
(** A supervisor child.  At most [max_restarts] (default 3) restarts in
    its lifetime; one more escalates.  Supervisor fibers are never
    killable — chaos targets the leaves. *)

(** A single-reader mailbox: [send] never blocks, [recv] parks.
    A reader cancelled while parked is purged eagerly, so a later
    [send] queues the message rather than losing it to a dead
    resumer. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  val send : 'a t -> 'a -> unit

  val recv : 'a t -> 'a
  (** Must run inside a runner. *)
end

val self_path : unit -> string
(** The supervision-tree path of the calling worker (e.g.
    ["root/listeners/accept-0"]); ["?"] outside a supervised fiber. *)

val heartbeat : unit -> unit
(** Stamp the calling worker's heartbeat with the tree clock; the
    watchdog pattern reads it back via {!last_heartbeat}.  A no-op
    outside a supervised fiber. *)

type handle

val start : ?clock:(unit -> int) -> spec -> handle
(** Fork the tree (root spec must be a supervisor) and return its
    handle.  The whole tree is running — every worker forked, every
    supervisor parked on its mailbox — when this returns. *)

val running : handle -> bool

val wait : handle -> outcome
(** Park until the tree finishes: {!Completed} when stopped or every
    child reached a terminal state, {!Gave_up} when the root blew its
    restart budget. *)

val shutdown : handle -> outcome
(** Graceful, bottom-up teardown: each supervisor stops its children in
    reverse start order (sub-supervisors recursively first), workers
    are cancelled and unwind through their cleanup handlers.  Then
    behaves as {!wait}. *)

val kill : handle -> string -> bool
(** [kill h name] force-kills the named child (leaf name, e.g.
    ["accept-0"]) — an {e abnormal} exit, so its supervisor restarts it.
    This is the watchdog's hammer.  [false] if
    no such child is running. *)

val last_heartbeat : handle -> string -> int option

val restarts : handle -> int
(** Restart actions performed so far, tree-wide. *)

val escalations : handle -> int

(** Structured concurrency: children never outlive the scope.

    [run body] passes a fresh scope to [body]; children forked into it
    with {!Nursery.fork} are cancelled when the scope exits (so a body
    that wants its children's results must {!Nursery.join} first).  The
    first unhandled child exception cancels the siblings and re-raises
    at the scope; cancellation reaches each fiber exactly once
    ({!Sched.Ctl.cancel} is one-shot).  Children are killable by
    default: a chaos kill of a child is {e not} a failure of the scope
    (the supervisor above is in charge of restarts). *)
module Nursery : sig
  type t

  val run : ?clock:(unit -> int) -> ?name:string -> (t -> 'a) -> 'a
  (** Raises the body's exception, or the first child failure, after
      all children have been cancelled and have unwound.  When tracing
      is on, the scope emits [Nursery_begin]/[Nursery_end] span markers
      stamped from [clock]; an unclocked scope stamps them 0. *)

  val fork : t -> (unit -> unit) -> unit
  (** No-op if the scope is already failing or closing. *)

  val join : t -> unit
  (** Park until every child has finished; raises the first child
      failure as soon as it happens. *)

  val check : t -> unit
  (** Raise the first child failure now, if any. *)

  val failed : t -> exn option

  val live : t -> int

  val name : t -> string
end
