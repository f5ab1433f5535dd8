(** A virtual-time event loop — the model's stand-in for libev.

    The loop keeps a priority queue of callbacks ordered by virtual
    nanoseconds.  "Blocking" I/O advances virtual time to the next
    event; an asynchronous scheduler instead runs other threads and
    only advances time when every thread is parked.  Because time is
    virtual, the latency benefit of asynchrony (§3.1) is exactly
    measurable and deterministic. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time (clamped to now). *)

val after : t -> delay:int -> (unit -> unit) -> unit
(** @raise Invalid_argument on a negative delay. *)

val pending : t -> int
(** Number of scheduled callbacks not yet run. *)

val advance_once : t -> bool
(** Advance to the next scheduled callback and run it (plus any others
    scheduled for the same instant); false when nothing is pending. *)

val advance_until : t -> (unit -> bool) -> bool
(** Advance events until the condition holds; false if the queue drains
    first. *)

val drain : t -> unit
(** Run everything to quiescence. *)
