(** The runtime eventlog: a fixed-capacity ring buffer of typed events
    behind one static flag.

    Disabled (the default), the entire subsystem is a single branch:
    instrumentation sites read [on ()] and skip both the event
    construction and the call, so nothing allocates and every pinned
    counter/table stays bit-identical.  Enabled, events land in a
    pre-allocated ring; overflow drops the {e oldest} events and counts
    the loss (also incrementing the [trace_dropped_events] metric when
    the metrics registry is enabled). *)

type t

(** {1 Ring buffer} *)

val create : capacity:int -> t
(** @raise Invalid_argument unless [capacity > 0]. *)

val add : t -> Event.t -> unit

val length : t -> int

val capacity : t -> int

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val iter : t -> (Event.t -> unit) -> unit
(** Oldest surviving event first. *)

val to_list : t -> Event.t list

(** {1 The process-wide session} *)

val on : unit -> bool
(** The static flag every instrumentation site branches on. *)

val start : ?capacity:int -> unit -> t
(** Install a fresh ring (of 65536 events by default) as the current
    session and enable tracing. *)

val stop : unit -> t option
(** Disable tracing and detach the current ring (returned for export). *)

val scoped : ?capacity:int -> (unit -> 'a) -> 'a * t
(** Trace for the duration of the thunk; restores the previous session
    (enabled or not) afterwards, so scopes nest safely. *)

val emit : ?ts:int -> Event.ev -> unit
(** Append to the current session (no-op without one).  [ts] defaults
    to {!Retrofit_util.Vclock.now}.  Call sites on hot paths must guard
    with [on ()] so the disabled path does not even build the event. *)

val events : unit -> Event.t list
