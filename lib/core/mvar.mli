(** MVars: synchronising cells for scheduler threads.

    An MVar is either empty or holds one value.  [take] on an empty
    MVar and [put] on a full one park the calling thread via
    {!Sched.park}; resumptions preserve FIFO order.  This is the
    synchronisation primitive of the chameneos benchmark (§6.3.2) and of
    the concurrency-monad comparison (§6.2). *)

type 'a t

val create_empty : unit -> 'a t

val create : 'a -> 'a t

val take : 'a t -> 'a
(** Must run inside {!Sched.run}. *)

val put : 'a t -> 'a -> unit
(** Must run inside {!Sched.run}. *)

val try_take : 'a t -> 'a option
(** Non-blocking: [None] when empty. *)

val is_empty : 'a t -> bool

val waiters : 'a t -> int
(** Number of live parked waiters (takers when empty, putters when
    full).  Fibers cancelled while parked are purged eagerly — by the
    undo they hand to {!Sched.park} — so they never count here, and a
    cancelled [put] never deposits its value. *)
